package seal

import (
	"bytes"
	"testing"
)

func TestRotatingRoundTrip(t *testing.T) {
	rs, err := NewRotatingSealer(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rs.Seal([]byte("hello"), []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != SealedLenRotating(5) {
		t.Fatalf("blob len = %d, want %d", len(blob), SealedLenRotating(5))
	}
	pt, err := rs.Open(blob, []byte("aad"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, []byte("hello")) {
		t.Fatal("round trip mismatch")
	}
}

func TestRotationHappensAtBudget(t *testing.T) {
	rs, err := NewRotatingSealer(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	var blobs [][]byte
	for i := 0; i < 10; i++ {
		b, err := rs.Seal([]byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	// 10 seals at budget 3: epochs 0,0,0 | 1,1,1 | 2,2,2 | 3.
	if rs.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", rs.Epoch())
	}
	// Epochs 1..3 remain openable (window 2 keeps epoch >= 1).
	for i := 3; i < 10; i++ {
		if _, err := rs.Open(blobs[i], nil); err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
	}
	// Epoch 0 has been evicted.
	if _, err := rs.Open(blobs[0], nil); err == nil {
		t.Fatal("evicted epoch still opened")
	}
}

func TestRotatingTamperAndEpochForgery(t *testing.T) {
	rs, err := NewRotatingSealer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rs.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a ciphertext bit.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1] ^= 1
	if _, err := rs.Open(bad, nil); err == nil {
		t.Fatal("tampered blob accepted")
	}
	// Forge the epoch prefix: wrong key, must fail authentication or be
	// unknown.
	forged := append([]byte(nil), blob...)
	forged[3] ^= 1
	if _, err := rs.Open(forged, nil); err == nil {
		t.Fatal("epoch-forged blob accepted")
	}
	// Too short.
	if _, err := rs.Open(blob[:4], nil); err == nil {
		t.Fatal("short blob accepted")
	}
}

func TestRotatingConcurrentUse(t *testing.T) {
	const goroutines, sealsEach, budget = 8, 100, 50
	// A goroutine descheduled between its Seal and its Open can be outrun
	// by every rotation its siblings cause, so the window covers all of
	// them; expiry is TestRotationHappensAtBudget's business, not this
	// test's.
	rs, err := NewRotatingSealer(budget, goroutines*sealsEach/budget)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < sealsEach; i++ {
				b, err := rs.Seal([]byte("payload"), nil)
				if err != nil {
					done <- err
					return
				}
				if _, err := rs.Open(b, nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rs.Epoch() < 10 {
		t.Fatalf("epoch = %d after 800 seals at budget 50, want >= 10", rs.Epoch())
	}
}
