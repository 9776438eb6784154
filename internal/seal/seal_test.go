package seal

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func newTestSealer(t *testing.T) *Sealer {
	t.Helper()
	s, err := NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	pt := []byte("secret gradient shard")
	aad := []byte("rank=3")
	ct, err := s.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(pt)+Overhead {
		t.Fatalf("sealed len = %d, want %d (+%d overhead, as the paper states)", len(ct), len(pt)+Overhead, Overhead)
	}
	got, err := s.Open(ct, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: %q != %q", got, pt)
	}
}

func TestEmptyPlaintext(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != Overhead {
		t.Fatalf("sealed empty len = %d, want %d", len(ct), Overhead)
	}
	got, err := s.Open(ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decrypted empty plaintext has %d bytes", len(got))
	}
}

func TestTamperDetection(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal([]byte("data"), []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ct); i++ {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 0x40
		if _, err := s.Open(bad, []byte("hdr")); err == nil {
			t.Fatalf("tampered byte %d accepted", i)
		}
	}
}

func TestAADBinding(t *testing.T) {
	s := newTestSealer(t)
	ct, err := s.Seal([]byte("data"), []byte("blocks=0..3"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(ct, []byte("blocks=0..4")); err == nil {
		t.Fatal("modified AAD accepted")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	s1, s2 := newTestSealer(t), newTestSealer(t)
	ct, err := s1.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Open(ct, nil); err == nil {
		t.Fatal("blob sealed under a different key accepted")
	}
}

func TestShortBlobRejected(t *testing.T) {
	s := newTestSealer(t)
	if _, err := s.Open(make([]byte, Overhead-1), nil); err == nil {
		t.Fatal("short blob accepted")
	}
}

// Every blob carries its nonce in the clear, so uniqueness is checked
// on the sealed output itself.
func TestNonceUniquenessAudit(t *testing.T) {
	s := newTestSealer(t)
	seen := make(map[[NonceSize]byte]bool)
	for i := 0; i < 2000; i++ {
		blob, err := s.Seal([]byte{byte(i)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := [NonceSize]byte(blob[:NonceSize])
		if seen[nonce] {
			t.Fatalf("seal %d reused a nonce", i)
		}
		seen[nonce] = true
	}
	sealed, _ := s.Counts()
	if sealed != 2000 {
		t.Fatalf("sealed count = %d, want 2000", sealed)
	}
}

// A million seals leave the live heap where it was: a sealer keeps no
// state per seal.
func TestSealKeepsHeapFlat(t *testing.T) {
	s := newTestSealer(t)
	pt := make([]byte, 1<<10)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 1_000_000
	for i := 0; i < n; i++ {
		if _, err := s.Seal(pt, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d >= 256<<10 {
		t.Fatalf("live heap grew %d B over %d seals, want < 256 KiB", d, n)
	}
	if got := s.Invocations(); got != n {
		t.Fatalf("invocations = %d, want %d", got, n)
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := NewSealer(make([]byte, 7)); err == nil {
		t.Fatal("7-byte key accepted")
	}
}

func TestSealedPlainLen(t *testing.T) {
	if SealedLen(100) != 128 {
		t.Fatalf("SealedLen(100) = %d, want 128", SealedLen(100))
	}
	if PlainLen(128) != 100 {
		t.Fatalf("PlainLen(128) = %d, want 100", PlainLen(128))
	}
	if PlainLen(5) != -1 {
		t.Fatal("PlainLen of short blob should be -1")
	}
}

// Property: Seal/Open round-trips arbitrary plaintext and AAD, and the
// ciphertext differs from the plaintext body.
func TestQuickRoundTrip(t *testing.T) {
	s := newTestSealer(t)
	f := func(pt, aad []byte) bool {
		ct, err := s.Seal(pt, aad)
		if err != nil {
			return false
		}
		if len(ct) != len(pt)+Overhead {
			return false
		}
		if len(pt) > 8 && bytes.Contains(ct, pt) {
			return false // plaintext visible in ciphertext
		}
		got, err := s.Open(ct, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two seals of the same plaintext are distinct (distinct nonces).
func TestQuickNondeterministicCiphertexts(t *testing.T) {
	s := newTestSealer(t)
	pt := make([]byte, 64)
	if _, err := rand.Read(pt); err != nil {
		t.Fatal(err)
	}
	c1, err1 := s.Seal(pt, nil)
	c2, err2 := s.Seal(pt, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if bytes.Equal(c1, c2) {
		t.Fatal("two seals of the same plaintext produced identical blobs")
	}
}
