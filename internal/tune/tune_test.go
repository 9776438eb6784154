package tune

import (
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		m    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{1025, 10}, {16383, 13}, {16384, 14}, {1 << 20, 20}, {(1 << 20) + 5, 20},
	}
	for _, c := range cases {
		if got := BucketOf(c.m); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.m, got, c.want)
		}
	}
	for b := 1; b < 30; b++ {
		if lo := int64(1) << b; BucketOf(lo) != b || BucketOf(lo-1) != b-1 {
			t.Errorf("BucketOf(%d) = %d, BucketOf(%d) = %d: bucket %d starts elsewhere", lo, BucketOf(lo), lo-1, BucketOf(lo-1), b)
		}
	}
}

// The built-in fallback must match the legacy in-algorithm dispatcher
// byte for byte: o-rd2 below 1KB, c-rd below 16KB, hs2 above.
func TestDefaultPickThresholds(t *testing.T) {
	cases := []struct {
		m    int64
		want string
	}{
		{1, "o-rd2"}, {1023, "o-rd2"}, {1024, "c-rd"},
		{16383, "c-rd"}, {16384, "hs2"}, {1 << 20, "hs2"},
	}
	for _, c := range cases {
		if got := DefaultPick(c.m); got != c.want {
			t.Errorf("DefaultPick(%d) = %q, want %q", c.m, got, c.want)
		}
	}
}

func testTable() *Table {
	return &Table{Version: Version, Cells: []Cell{
		{Key: Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}, Best: "c-ring",
			LatencyNS: map[string]float64{"c-ring": 100, "hs2": 200}},
		{Key: Key{Bucket: 14, P: 4, N: 2, Engine: "chan"}, Best: "hs1",
			LatencyNS: map[string]float64{"c-ring": 300, "hs1": 150}},
		{Key: Key{Bucket: 10, P: 4, N: 2, Engine: "tcp"}, Best: "o-ring",
			LatencyNS: map[string]float64{"o-ring": 80, "hs2": 400}},
	}}
}

func TestLookupAndNearest(t *testing.T) {
	tab := testTable()
	k := Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}
	if c := tab.Lookup(k); c == nil || c.Best != "c-ring" {
		t.Fatalf("exact lookup failed: %+v", c)
	}
	// A nearby bucket on the same engine falls back to the closest cell.
	near := tab.Nearest(Key{Bucket: 11, P: 4, N: 2, Engine: "chan"})
	if near == nil || near.Bucket != 10 {
		t.Fatalf("nearest bucket fallback = %+v, want bucket 10", near)
	}
	// Engine is a hard constraint: no sim cells exist, so no fallback.
	if c := tab.Nearest(Key{Bucket: 10, P: 4, N: 2, Engine: "sim"}); c != nil {
		t.Fatalf("engine constraint crossed: %+v", c)
	}
	// Pipelining is a hard constraint too.
	if c := tab.Nearest(Key{Bucket: 10, P: 4, N: 2, Engine: "chan", Pipelined: true}); c != nil {
		t.Fatalf("pipelining constraint crossed: %+v", c)
	}
	// Shape distance outweighs bucket distance: with cells at p=4 only,
	// a p=64 query still picks a p=4 cell, preferring the closer bucket.
	near = tab.Nearest(Key{Bucket: 13, P: 64, N: 8, Engine: "chan"})
	if near == nil || near.Bucket != 14 {
		t.Fatalf("nearest shape fallback = %+v, want bucket 14", near)
	}
}

func TestTunerPick(t *testing.T) {
	tn := NewTuner(testTable(), nil)
	k := Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}
	if got := tn.Pick(k, 1024); got != "c-ring" {
		t.Fatalf("Pick = %q, want table argmin c-ring", got)
	}
	// No table coverage for sim → built-in thresholds.
	if got := tn.Pick(Key{Bucket: 10, P: 4, N: 2, Engine: "sim"}, 1024); got != "c-rd" {
		t.Fatalf("uncovered engine Pick = %q, want default c-rd", got)
	}
	// Nil-table tuner is byte-identical to DefaultPick at boundaries.
	bare := NewTuner(nil, nil)
	for _, m := range []int64{1, 1023, 1024, 16383, 16384, 1 << 20} {
		k := Key{Bucket: BucketOf(m), P: 4, N: 2, Engine: "chan"}
		if got, want := bare.Pick(k, m), DefaultPick(m); got != want {
			t.Errorf("bare Pick(m=%d) = %q, want %q", m, got, want)
		}
	}
}

func TestTunerValidityFilter(t *testing.T) {
	// A stale table naming an unknown algorithm must not select it.
	tab := &Table{Version: Version, Cells: []Cell{
		{Key: Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}, Best: "gone",
			LatencyNS: map[string]float64{"gone": 1, "hs2": 50}},
	}}
	tn := NewTuner(tab, func(a string) bool { return a != "gone" })
	if got := tn.Pick(Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}, 1024); got != "hs2" {
		t.Fatalf("Pick = %q, want hs2 (gone filtered)", got)
	}
	// Cell with only invalid entries falls through to the default.
	tab2 := &Table{Version: Version, Cells: []Cell{
		{Key: Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}, Best: "gone",
			LatencyNS: map[string]float64{"gone": 1}},
	}}
	tn2 := NewTuner(tab2, func(a string) bool { return a != "gone" })
	if got := tn2.Pick(Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}, 1024); got != "c-rd" {
		t.Fatalf("Pick = %q, want default c-rd", got)
	}
}

func TestTunerOnlineRefinement(t *testing.T) {
	tn := NewTuner(testTable(), nil)
	k := Key{Bucket: 10, P: 4, N: 2, Engine: "chan"}
	// Below minSamples the sweep's numbers still rule.
	tn.Observe(k, "hs2", 10*time.Nanosecond)
	tn.Observe(k, "hs2", 10*time.Nanosecond)
	if got := tn.Pick(k, 1024); got != "c-ring" {
		t.Fatalf("Pick after 2 samples = %q, want c-ring", got)
	}
	// At minSamples, hs2's observed 10ns EWMA beats c-ring's swept 100ns.
	tn.Observe(k, "hs2", 10*time.Nanosecond)
	if got := tn.Pick(k, 1024); got != "hs2" {
		t.Fatalf("Pick after refinement = %q, want hs2", got)
	}
	if n := tn.Samples(k, "hs2"); n != 3 {
		t.Fatalf("Samples = %d, want 3", n)
	}
}

func TestParseRejectsBadTables(t *testing.T) {
	if _, err := Parse([]byte(`{"version":2,"cells":[]}`)); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if _, err := Parse([]byte(`{"version":1,"cells":[{"bucket":-1,"p":4,"n":2,"engine":"chan","best":"hs2"}]}`)); err == nil {
		t.Fatal("invalid key accepted")
	}
	if _, err := Parse([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	tab := testTable()
	data, err := tab.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(tab.Cells) {
		t.Fatalf("round trip lost cells: %d != %d", len(back.Cells), len(tab.Cells))
	}
	for _, c := range tab.Cells {
		got := back.Lookup(c.Key)
		if got == nil || got.Best != c.Best {
			t.Fatalf("cell %+v did not round trip", c.Key)
		}
	}
}
