package encag

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllgatherVBasic(t *testing.T) {
	spec := Spec{Procs: 8, Nodes: 4}
	data := [][]byte{
		[]byte("a"),
		[]byte("bb-and-more"),
		{}, // empty contribution is legal
		bytes.Repeat([]byte{7}, 4096),
		[]byte("medium-sized-block"),
		bytes.Repeat([]byte{9}, 100),
		[]byte("x"),
		bytes.Repeat([]byte{1}, 2000),
	}
	s := openTest(t, spec)
	for _, alg := range append(PaperAlgorithms(), "auto") {
		res, err := s.AllgatherV(bg, alg, data)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		contract(t, s, res, data)
	}
}

func TestSimulateVSkewedSizes(t *testing.T) {
	s := openTest(t, Spec{Procs: 16, Nodes: 4}, simOpts...)
	sizes := make([]int64, 16)
	for i := range sizes {
		sizes[i] = int64(i) * 4096 // heavily skewed, rank 0 empty
	}
	for _, alg := range []Alg{AlgNaive, AlgCRing, AlgHS2} {
		res, err := s.SimulateV(bg, alg, sizes)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Latency <= 0 {
			t.Fatalf("%s: non-positive latency", alg)
		}
	}
	// A uniform run of the same total volume should not be slower than
	// the skewed one by an order of magnitude (sanity of the V path).
	uniform := make([]int64, 16)
	for i := range uniform {
		uniform[i] = 30 << 10
	}
	if _, err := s.SimulateV(bg, "hs2", uniform); err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherVCountMismatch(t *testing.T) {
	spec := Spec{Procs: 4, Nodes: 2}
	if _, err := openTest(t, spec).AllgatherV(bg, "hs2", make([][]byte, 3)); err == nil {
		t.Fatal("wrong contribution count accepted")
	}
	if _, err := openTest(t, spec, simOpts...).SimulateV(bg, "hs2", []int64{1, 2}); err == nil {
		t.Fatal("wrong size count accepted")
	}
}

// Property: random sizes (including zeros), random balanced specs and
// mappings — every paper algorithm gathers the exact bytes, securely.
func TestQuickAllgatherV(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, cyclic bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		l := rng.Intn(3) + 1
		p := n * l
		mapping := "block"
		if cyclic {
			mapping = "cyclic"
		}
		spec := Spec{Procs: p, Nodes: n, Mapping: mapping}
		data := make([][]byte, p)
		for r := range data {
			buf := make([]byte, rng.Intn(300))
			rng.Read(buf)
			data[r] = buf
		}
		algs := PaperAlgorithms()
		alg := algs[rng.Intn(len(algs))]
		s, err := OpenSession(bg, spec)
		if err != nil {
			return false
		}
		defer s.Close()
		res, err := s.AllgatherV(bg, alg, data)
		if err != nil {
			return false
		}
		contract(t, s, res, data)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceFacade(t *testing.T) {
	spec := Spec{Procs: 8, Nodes: 4}
	const m = 128
	data := make([][]byte, spec.Procs)
	want := make([]byte, m)
	for r := range data {
		data[r] = make([]byte, m)
		for i := range data[r] {
			data[r][i] = byte(r*31 + i)
			want[i] ^= data[r][i]
		}
	}
	res, err := openTest(t, spec).Allreduce(bg, data, XORCombine)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SecurityOK {
		t.Fatalf("violations: %v", res.Violations)
	}
	if !bytes.Equal(res.Result, want) {
		t.Fatal("reduction result wrong")
	}
	if res.Metrics.Sd >= int64(spec.Procs-1)*m {
		t.Fatalf("sd = %d: hierarchical all-reduce should decrypt far less than naive's (p-1)m", res.Metrics.Sd)
	}
}

// The all-reduce folds into rank-private partials and reads everything
// else as views: the caller's vectors come back byte-identical, Result
// shares memory with none of them, and every rank agrees on the right
// answer, op after op. On pipelined TCP each 32 KiB slice of the 64 KiB
// vectors is reduced through SealIsend, sealed by the send loop as it
// goes out, so a partial changed after its SealIsend shows; a byte-wise
// add shows a slice folded twice, which XOR can cancel.
func TestAllreduceLeavesInputsAlone(t *testing.T) {
	const m = 64 << 10
	spec := Spec{Procs: 4, Nodes: 2}
	add := func(dst, src []byte) {
		for i := range dst {
			dst[i] += src[i]
		}
	}
	for _, eng := range []struct {
		name string
		opts []Option
	}{
		{"chan", nil},
		{"tcp/pipelined", []Option{WithEngine(EngineTCP), WithPipelining(true)}},
	} {
		s := openTest(t, spec, eng.opts...)
		for _, op := range []struct {
			name string
			fn   CombineFunc
		}{{"xor", XORCombine}, {"add", add}} {
			for rep := 0; rep < 2; rep++ {
				data := make([][]byte, spec.Procs)
				kept := make([][]byte, spec.Procs)
				want := make([]byte, m)
				for r := range data {
					data[r] = make([]byte, m)
					for i := range data[r] {
						data[r][i] = byte(r*131 + i*7 + rep)
					}
					kept[r] = bytes.Clone(data[r])
					op.fn(want, data[r])
				}
				res, err := s.Allreduce(bg, data, op.fn)
				if err != nil {
					t.Fatalf("%s %s: %v", eng.name, op.name, err)
				}
				if !bytes.Equal(res.Result, want) {
					t.Fatalf("%s %s: wrong reduction", eng.name, op.name)
				}
				for r := range data {
					if !bytes.Equal(data[r], kept[r]) {
						t.Fatalf("%s %s: rank %d's input vector was written", eng.name, op.name, r)
					}
					lo, hi := &res.Result[0], &res.Result[m-1]
					for i := range data[r] {
						if p := &data[r][i]; p == lo || p == hi {
							t.Fatalf("%s %s: Result aliases rank %d's input", eng.name, op.name, r)
						}
					}
				}
			}
		}
	}
}

func TestAllreduceFacadeErrors(t *testing.T) {
	if _, err := openTest(t, Spec{Procs: 4, Nodes: 2}).Allreduce(bg, make([][]byte, 3), XORCombine); err == nil {
		t.Fatal("wrong count accepted")
	}
}
