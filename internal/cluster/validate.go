package cluster

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"encag/internal/block"
	"encag/internal/seal"
)

// ValidateGather checks that every rank's result is a complete, fully
// decrypted all-gather of p blocks of msgSize bytes: no chunk still
// encrypted, every origin present exactly once with the right length.
// With checkPayload (real results only) every gathered byte is also
// compared with the deterministic test pattern of its origin — one
// pass over each distinct gathered buffer (block.CheckPattern), no
// allocation — so corruption that no AEAD covers (intra-node plaintext,
// an aliased buffer) is caught on either link.
func ValidateGather(spec Spec, msgSize int64, results []block.Message, checkPayload bool) error {
	return ValidateGatherV(spec, block.UniformSizes(spec.P, msgSize), results, checkPayload)
}

// ValidateGatherV is ValidateGather for variable block sizes.
func ValidateGatherV(spec Spec, sizes []int64, results []block.Message, checkPayload bool) error {
	_, err := GatherViews(spec, sizes, results, checkPayload, nil)
	return err
}

// GatherViews validates like ValidateGatherV and returns what it walked:
// views[rank][origin] is origin's block as rank gathered it, a slice of
// that rank's result message (nil in sim mode), not a copy. Every rank's
// views are carved from one backing array. The structural pass runs on
// every rank first; with checkPayload the pattern pass then reads each
// distinct buffer once (checkPatterns), the ones larger than one seal
// segment on pool (nil: on the caller).
func GatherViews(spec Spec, sizes []int64, results []block.Message, checkPayload bool, pool *seal.Pool) ([][][]byte, error) {
	if len(results) != spec.P {
		return nil, fmt.Errorf("cluster: %d results for %d ranks", len(results), spec.P)
	}
	n := len(sizes)
	views := make([][][]byte, len(results))
	backing := make([][]byte, len(results)*n)
	have := make([]bool, n)
	for r, msg := range results {
		v := backing[r*n : (r+1)*n : (r+1)*n]
		if err := block.NormalizeInto(v, have, msg, sizes); err != nil {
			return nil, fmt.Errorf("cluster: rank %d result invalid: %w", r, err)
		}
		views[r] = v
	}
	if checkPayload {
		if err := checkPatterns(views, sizes, pool); err != nil {
			return nil, err
		}
	}
	return views, nil
}

// patternBuf is one distinct gathered buffer: the bytes, their origin,
// and the view that holds them first in rank-major order (rank·n +
// origin), which an error names.
type patternBuf struct {
	buf    []byte
	origin int
	at     int64
}

// patternCheck is one pattern pass's state, recycled through
// patternChecks with its task method bound once, so a check allocates
// nothing per call.
type patternCheck struct {
	inline []patternBuf // at most one seal segment each: run on the caller
	pooled []patternBuf // larger: run on the worker pool
	bad    atomic.Int64 // lowest failing patternBuf.at, or math.MaxInt64
	task   func(int)
}

var patternChecks = newRecycler(func() *patternCheck {
	c := new(patternCheck)
	c.task = c.checkPooled
	return c
})

func (c *patternCheck) checkPooled(i int) { c.check(c.pooled[i]) }

// check compares b with its origin's pattern and keeps the lowest
// failing position, so the verdict is the same in any order.
func (c *patternCheck) check(b patternBuf) {
	if block.CheckPattern(b.origin, b.buf) {
		return
	}
	for {
		cur := c.bad.Load()
		if b.at >= cur || c.bad.CompareAndSwap(cur, b.at) {
			return
		}
	}
}

// checkPatterns compares every byte of every distinct buffer in views
// (lengths already checked against sizes) with its origin's test
// pattern. Views of one origin that are one buffer — a rank's own
// payload delivered in memory to its node, a forwarded plaintext — are
// read once. The error names the first corrupted view in rank-major
// order, as a rank-by-rank pass would.
func checkPatterns(views [][][]byte, sizes []int64, pool *seal.Pool) error {
	c := patternChecks.get()
	defer c.release()
	n := len(sizes)
	for origin, size := range sizes {
		list := &c.inline
		if size > seal.DefaultSegmentSize {
			list = &c.pooled
		}
		first := len(*list)
		for r, v := range views {
			pl := v[origin]
			if pl == nil {
				return fmt.Errorf("cluster: rank %d result invalid: block: origin %d has no payload in real mode", r, origin)
			}
			if len(pl) == 0 || holds((*list)[first:], pl) {
				continue
			}
			*list = append(*list, patternBuf{buf: pl, origin: origin, at: int64(r*n + origin)})
		}
	}
	c.bad.Store(math.MaxInt64)
	for _, b := range c.inline {
		c.check(b)
	}
	if pool != nil {
		pool.Run(len(c.pooled), c.task)
	} else {
		for _, b := range c.pooled {
			c.check(b)
		}
	}
	if at := c.bad.Load(); at != math.MaxInt64 {
		return fmt.Errorf("cluster: rank %d result invalid: block: origin %d payload corrupted", at/int64(n), at%int64(n))
	}
	return nil
}

// holds reports whether bufs already has pl's buffer: the same first
// byte and the same length.
func holds(bufs []patternBuf, pl []byte) bool {
	for _, b := range bufs {
		if unsafe.SliceData(b.buf) == unsafe.SliceData(pl) && len(b.buf) == len(pl) {
			return true
		}
	}
	return false
}

// release drops the pass's references to gathered bytes and recycles c,
// unless its lists grew past what a small session needs.
func (c *patternCheck) release() {
	if cap(c.inline)+cap(c.pooled) > maxKeptBufs {
		return
	}
	clear(c.inline)
	clear(c.pooled)
	c.inline, c.pooled = c.inline[:0], c.pooled[:0]
	patternChecks.put(c)
}

// maxKeptBufs is the most list entries a recycled patternCheck keeps:
// every view of 32 ranks, about 40 KB.
const maxKeptBufs = 32 * 32

// recycler is a bounded free list of per-call records. It is a channel,
// not a sync.Pool: the collector empties a sync.Pool every cycle, which
// at megabytes per operation is every op or two, and a pool's record put
// on one P is not seen by a Get on another, so most calls would build a
// fresh record and regrow its lists. A full list drops what it is handed.
type recycler[T any] struct {
	free  chan *T
	fresh func() *T
}

// recyclerCap bounds the idle records of one kind: one per operation in
// flight on a busy host is plenty, the rest are left to the collector.
const recyclerCap = 16

func newRecycler[T any](fresh func() *T) recycler[T] {
	return recycler[T]{free: make(chan *T, recyclerCap), fresh: fresh}
}

func (r recycler[T]) get() *T {
	select {
	case x := <-r.free:
		return x
	default:
		return r.fresh()
	}
}

func (r recycler[T]) put(x *T) {
	select {
	case r.free <- x:
	default:
	}
}
