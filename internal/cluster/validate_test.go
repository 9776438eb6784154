package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"encag/internal/block"
	"encag/internal/seal"
)

// gathered builds p ranks' results from held[r][origin], each view its
// own single-block chunk, as the structural pass sees any result.
func gathered(held [][][]byte) []block.Message {
	out := make([]block.Message, len(held))
	for r, views := range held {
		for origin, v := range views {
			out[r].Append(block.NewPlain(origin, v).Chunks...)
		}
	}
	return out
}

// sharedViews is a clean 4-rank gather of size-byte blocks laid out as
// an in-memory node does it: ranks 0 and 1 (node 0) hold one buffer per
// origin of node 0, ranks 2 and 3 one per origin of node 1, and every
// view of another node's origin is a buffer of the viewing rank's own.
func sharedViews(size int64) [][][]byte {
	const p = 4
	node := func(r int) int { return r / 2 }
	shared := make([][]byte, p)
	for o := range shared {
		shared[o] = block.FillPattern(o, size)
	}
	held := make([][][]byte, p)
	for r := range held {
		held[r] = make([][]byte, p)
		for o := range held[r] {
			if node(o) == node(r) {
				held[r][o] = shared[o]
			} else {
				held[r][o] = block.FillPattern(o, size)
			}
		}
	}
	return held
}

// The end-of-run pattern check gives one verdict with or without a
// worker pool, below and above one seal segment: a clean result passes;
// a corrupted buffer that two ranks share fails naming its origin and
// first holder; of two distinct buffers with equal bytes the second is
// still read; a view that aliases another origin's buffer fails; and a
// flip at the last byte of a buffer on the pool path is caught.
func TestCheckPatternsVerdicts(t *testing.T) {
	pool := seal.NewPool(2)
	defer pool.Close()
	for _, size := range []int64{700, seal.DefaultSegmentSize + 1, 80 << 10} {
		cases := []struct {
			name string
			harm func(held [][][]byte)
			want string // "" for a clean verdict
		}{
			{"clean", func([][][]byte) {}, ""},
			{"shared buffer", func(held [][][]byte) {
				held[3][2][size/2] ^= 1 // ranks 2 and 3 share origin 2's buffer
			}, "rank 2 result invalid: block: origin 2 payload corrupted"},
			{"equal distinct buffers", func(held [][][]byte) {
				held[3][0][0] ^= 1 // rank 2 holds an equal buffer of its own
			}, "rank 3 result invalid: block: origin 0 payload corrupted"},
			{"alias of another origin", func(held [][][]byte) {
				held[1][3] = held[1][2]
			}, "rank 1 result invalid: block: origin 3 payload corrupted"},
			{"last byte", func(held [][][]byte) {
				held[2][1][size-1] ^= 0x80
			}, "rank 2 result invalid: block: origin 1 payload corrupted"},
		}
		for _, c := range cases {
			held := sharedViews(size)
			c.harm(held)
			results := gathered(held)
			sizes := block.UniformSizes(4, size)
			spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
			var verdicts [2]string
			for i, pl := range []*seal.Pool{nil, pool} {
				views, err := GatherViews(spec, sizes, results, true, pl)
				switch {
				case c.want == "" && err != nil:
					t.Fatalf("%d B %s (pool %v): clean result rejected: %v", size, c.name, pl != nil, err)
				case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
					t.Fatalf("%d B %s (pool %v): %v, want an error naming %q", size, c.name, pl != nil, err, c.want)
				case err == nil && &views[3][2][0] != &held[3][2][0]:
					t.Fatalf("%d B %s: views are not the gathered buffers", size, c.name)
				}
				verdicts[i] = fmt.Sprint(err)
			}
			if verdicts[0] != verdicts[1] {
				t.Fatalf("%d B %s: inline verdict %q, pool verdict %q", size, c.name, verdicts[0], verdicts[1])
			}
		}
	}
}

// The structural pass runs on every rank before any pattern is read, and
// a real-mode view without bytes is still refused.
func TestGatherViewsStructureFirst(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	sizes := block.UniformSizes(4, 64)
	held := sharedViews(64)
	held[0][1][0] ^= 1
	results := gathered(held)
	results[3].Chunks = results[3].Chunks[:3]
	if _, err := GatherViews(spec, sizes, results, true, nil); err == nil || !strings.Contains(err.Error(), "rank 3 result invalid: block: origin 3 missing") {
		t.Fatalf("got %v, want rank 3's structural error before rank 0's pattern error", err)
	}
	results = gathered(sharedViews(64))
	results[1].Chunks[2].Payload = nil
	if _, err := GatherViews(spec, sizes, results, true, nil); err == nil || !strings.Contains(err.Error(), "origin 2 has no payload in real mode") {
		t.Fatalf("got %v, want the missing payload named", err)
	}
}

// Op.inputs builds every rank's test pattern, fresh per call, below, at
// and above one seal segment, with or without a worker pool.
func TestInputsFillPatterns(t *testing.T) {
	pool := seal.NewPool(2)
	defer pool.Close()
	op := Op{Algo: ringPlain, Sizes: []int64{0, seal.DefaultSegmentSize, seal.DefaultSegmentSize + 1, 1 << 20}}
	sizes, err := op.resolve(Spec{P: 4, N: 2, Mapping: BlockMapping})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*seal.Pool{nil, pool} {
		first := op.inputs(sizes, pl)
		second := op.inputs(sizes, pl)
		for r, in := range first {
			if !bytes.Equal(in, block.FillPattern(r, sizes[r])) || int64(cap(in)) != sizes[r] {
				t.Fatalf("pool %v: rank %d input is not its %d-byte pattern", pl != nil, r, sizes[r])
			}
			if sizes[r] > 0 && &in[0] == &second[r][0] {
				t.Fatalf("pool %v: rank %d input reused across calls", pl != nil, r)
			}
		}
	}
}
