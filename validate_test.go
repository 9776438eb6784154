package encag

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"encag/internal/block"
	"encag/internal/cluster"
)

// End-of-run validation on the facade: one corrupted byte anywhere in
// any rank's gathered view of any origin must fail the run — as the
// structured RankError (Op "validate") under a fault plan, as the
// engine's invalid-gather error otherwise — and the untouched result
// must pass. The result is a real EngineTCP one, tampered with between
// the collective and the facade's validating pass.
func TestFacadeRejectsAnyCorruptedBlock(t *testing.T) {
	const m = 700 // more than two pattern periods
	s, err := OpenSession(context.Background(), Spec{Procs: 4, Nodes: 2}, WithEngine(EngineTCP))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	impl, used := s.resolveAlg(AlgCRing, m)
	res, err := s.inner.Collective(context.Background(), cluster.Op{Algo: impl, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	sizes := block.UniformSizes(s.cs.P, m)
	// validate is the facade's pass over a pattern run's result, with and
	// without a fault plan on the operation.
	validate := func(planned bool) (*RunResult, error) {
		return s.conclude(&gatherCall{used: used, sizes: sizes, largest: m, patterns: true, planned: planned, noun: "gather"}, res, nil)
	}
	clean, err := validate(false)
	if err != nil {
		t.Fatalf("clean TCP result rejected: %v", err)
	}
	for r, view := range clean.Gathered {
		for origin, blk := range view {
			// Positions in the first period, at its edge and beyond it.
			for _, at := range []int{(r*5 + origin) % 256, 255, 256, m - 1 - r} {
				blk[at] ^= 0x20
				_, err := validate(false)
				_, perr := validate(true)
				blk[at] ^= 0x20
				if err == nil {
					t.Fatalf("rank %d origin %d byte %d corrupted: accepted", r, origin, at)
				}
				// Ranks of one node may share a payload, so the first
				// rank to trip may not be r; the origin is exact.
				want := fmt.Sprintf("origin %d payload corrupted", origin)
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("rank %d origin %d byte %d: error %q does not name %q", r, origin, at, err, want)
				}
				var re *RankError
				if !errors.As(perr, &re) || re.Op != "validate" || !strings.Contains(perr.Error(), want) {
					t.Fatalf("under a fault plan: %v, want a *RankError with Op validate naming %q", perr, want)
				}
				if !strings.Contains(err.Error(), "invalid gather over TCP") {
					t.Fatalf("without a plan: %v, want the TCP invalid-gather error", err)
				}
			}
		}
	}
	if _, err := validate(false); err != nil {
		t.Fatalf("restored result rejected: %v", err)
	}
}

// TestGatheredViewsAreTheCallers guards RunResult.Gathered's promise
// that the views are the caller's: a rank's own block and the plaintext
// a same-node pair delivers in memory alias the op's input payloads, so
// those must be fresh per op. After the caller overwrites every byte of
// every view, the next op on the same session must still gather the
// exact pattern, on both real engines, unpipelined and pipelined.
func TestGatheredViewsAreTheCallers(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		alg  Alg
		size int64
		opts []Option
	}{
		{"o-rd2/1KiB/8x4", Spec{Procs: 8, Nodes: 4}, AlgORD2, 1 << 10, nil},
		{"c-ring/64KiB/4x2/pipelined", Spec{Procs: 4, Nodes: 2}, AlgCRing, 64 << 10, []Option{WithPipelining(true)}},
	}
	for _, eng := range []Engine{EngineChan, EngineTCP} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", eng, c.name), func(t *testing.T) {
				s, err := OpenSession(context.Background(), c.spec, append([]Option{WithEngine(eng)}, c.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				for op := 0; op < 3; op++ {
					res, err := s.Run(context.Background(), c.alg, c.size)
					if err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
					for r, view := range res.Gathered {
						for origin, blk := range view {
							if !bytes.Equal(blk, block.FillPattern(origin, c.size)) || !block.CheckPattern(origin, blk) {
								t.Fatalf("op %d: rank %d holds a wrong block from origin %d", op, r, origin)
							}
						}
					}
					// A constant, not an inversion: views that share
					// memory would undo each other's inversions.
					for _, view := range res.Gathered {
						for _, blk := range view {
							for i := range blk {
								blk[i] = 0xA5
							}
						}
					}
				}
			})
		}
	}
}

// allocsPerRun runs warm operations on a session opened with opts (the
// engine among them) and returns the bytes and the heap objects
// allocated per operation. Both repeat to a fraction of a percent, so a
// ceiling is safe where a latency bound would not be. With window 0 the
// operations are blocking Runs; with window w > 0 they are Starts on a
// WithMaxInFlight(w) session, w in flight, each waiting for the oldest
// before it starts, as the benchmark's tcp-overlap does.
func allocsPerRun(t *testing.T, spec Spec, alg Alg, msgSize int64, ops, window int, opts ...Option) (bytes, objects uint64) {
	t.Helper()
	if window > 0 {
		opts = append(opts, WithMaxInFlight(window))
	}
	s, err := OpenSession(context.Background(), spec, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inFlight := make([]*Handle, 0, window) // oldest first
	wait := func(h *Handle) {
		t.Helper()
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		t.Helper()
		if window == 0 {
			if _, err := s.Run(context.Background(), alg, msgSize); err != nil {
				t.Fatal(err)
			}
			return
		}
		if len(inFlight) == window {
			wait(inFlight[0])
			copy(inFlight, inFlight[1:])
			inFlight = inFlight[:window-1]
		}
		h, err := s.Start(context.Background(), alg, msgSize)
		if err != nil {
			t.Fatal(err)
		}
		inFlight = append(inFlight, h)
	}
	defer func() {
		for _, h := range inFlight {
			wait(h)
		}
	}()
	// Mesh setup, first-use buffers and the growth of a TCP session's
	// bounded wire capture are not per-op cost: warm up until the capture
	// is full.
	for i := 0; i < 3 || s.Wire() != nil && !s.Wire().Truncated && i < 2000; i++ {
		run()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	n := uint64(ops)
	return (after.TotalAlloc - before.TotalAlloc) / n, (after.Mallocs - before.Mallocs) / n
}

// Allocation gate for the bandwidth-bound shape the benchmark calls
// tcp-large-pipe (EngineTCP, 4 ranks on 2 nodes, c-ring, 1 MiB,
// pipelined). In the benchmark's unit (alloc_KB_per_op, KB = 1024 B):
// 41 075 while validation regenerated every origin's pattern for every
// rank, about 24 700 since it checks the gathered bytes in place; the
// gate is 27 000. Heap objects: about 1 940 while the frame codec read
// and wrote field by field through interfaces and discards went through
// a scratch ring, about 545 since, about 490 once ciphertext buffers were
// recycled, about 440 once a streamed message was one sealed chunk (no
// send plan, message assembly or seen-bitmap per stream), and about 416
// since same-node pairs deliver in memory, which also took the bytes to
// about 16 475 KB (no intra-node frame is encoded, read back and copied),
// and about 343 since each rank counts its own sends instead of a per-op
// audit and receives from per-source FIFOs, and about 192 since block
// lists are shared views, working sets member-indexed slices, each AAD
// one buffer and the crypto pool hands helpers a pooled job record, and
// about 154 since a session keeps its rank slots (goroutines, FIFOs,
// wake channels, timers and Procs) from op to op, and about 150 since
// the gathered views share one backing array and the payload fill and
// check take their per-call records from free lists. The race build,
// which runs every test, allocates up to 16 469 KB and, since the views
// share one array, 225 objects (11 runs, four of them beside two
// CPU-bound loops; 226 with the rank slots alone); each gate is that
// maximum plus 10 %. Bytes: about 12 330 KB since a streamed message has
// no sealed blob — its send loop seals each segment into the sender's
// one segment buffer and writes it from there — with the race build at
// up to 12 331 KB (11 runs, four beside two CPU-bound loops), so the
// byte gate fell from 18 116 KB to that maximum plus 10 %. Objects: about
// 93 since each rank draws its algorithm's lists from an arena its slot
// keeps and results are assembled into storage the op owns, up to 100
// under the race build (11 runs, four beside two CPU-bound loops), so
// the object gate fell from 248 to 110; about 90 since an op has no run
// bound (no timer and closure per op), up to 95 under the race build (3
// runs). Bytes: about 8 232 KB since a received stream opens each
// segment in the plaintext buffer it lands in and keeps no sealed blob
// unless its receiver relays it, up to 8 233 KB under the race build
// (11 runs, four beside two CPU-bound loops), so the byte gate fell
// from 13 564 KB to that maximum plus 10 %; objects about 86 (one AAD
// buffer per stream instead of a pooled one per segment), up to 102
// under the race build. Objects: about 68 since a socket reader decodes
// each frame into its op's arena for the pair (a stream's first
// sub-frame's block list and delivered chunk list, its AAD and seal
// header through reader scratch), up to 84 under the race build (22
// runs, eight beside two CPU-bound loops), so the object gate fell from
// 110 to 93.
func TestTCPLargePipeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		budget        = 9056 << 10
		objectsBudget = 93
	)
	perOp, objects := allocsPerRun(t, Spec{Procs: 4, Nodes: 2}, AlgCRing, 1<<20, 8, 0, WithEngine(EngineTCP), WithPipelining(true))
	t.Logf("%d KB and %d objects allocated per 1 MiB pipelined TCP c-ring op (budgets %d KB, %d)",
		perOp>>10, objects, budget>>10, objectsBudget)
	if perOp >= budget {
		t.Fatalf("%d KB allocated per op, budget %d KB", perOp>>10, budget>>10)
	}
	if objects >= objectsBudget {
		t.Fatalf("%d heap objects allocated per op, budget %d", objects, objectsBudget)
	}
}

// Allocation gate for the latency-bound shape the benchmark calls
// tcp-small (EngineTCP, 8 ranks on 4 nodes, o-rd2, 1 KiB). Heap objects
// per blocking operation: about 1 800 while the frame codec read and
// wrote field by field through interfaces and every receive made its
// own deadline timer, about 1 120 since, about 936 since same-node
// pairs deliver in memory, about 911 since each rank counts its own
// sends and receives from per-source FIFOs, and about 315 since block
// lists are shared views, the O-RD working set a member-indexed slice,
// each AAD one rank-owned buffer and blocking exchanges allocate no
// request or result slices, and about 224 since a session keeps its rank
// slots from op to op and a whole seal gathers its payload slices into
// rank scratch, and about 210 since the gathered views share one backing
// array, and about 74 since each rank draws O-RD's working set, chunk
// and block lists from an arena its slot keeps, the world group is built
// once per session, results are assembled into storage the op owns, and
// the send queue and the ciphertext list stop regrowing, and about 72
// since an op has no run bound (its timer and closure). Bytes: about
// 261 KB while every sealed blob and received ciphertext was a fresh
// make, about 142 KB since they are recycled per operation and same-node
// pairs skip the socket, about 106 KB since, about 92 KB with the rank
// slots, and about 69 KB with the arenas. The race build allocated up to
// 108 KB before the rank slots (93 KB since, 71 KB with the arenas), and
// up to 243 objects with the rank slots, 230 since the views share one
// array and 74 with the arenas (11 runs, four beside two CPU-bound
// loops), 72 without the run bound (3 runs); each gate is such a
// maximum plus 10 %. About 40 objects and 66 KB since a socket reader
// decodes each frame into its op's arena for the pair instead of a
// fresh chunk list and block list per frame, up to 40 and 67 KB under
// the race build (22 runs, eight beside two CPU-bound loops), so the
// gates fell from 82 objects and 79 KB to 44 and 74 KB.
func TestTCPSmallAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		budget        = 74 << 10
		objectsBudget = 44
	)
	perOp, objects := allocsPerRun(t, Spec{Procs: 8, Nodes: 4}, AlgORD2, 1<<10, 50, 0, WithEngine(EngineTCP))
	t.Logf("%d KB and %d objects allocated per 1 KiB TCP o-rd2 op (budgets %d KB, %d)",
		perOp>>10, objects, budget>>10, objectsBudget)
	if perOp >= budget {
		t.Fatalf("%d KB allocated per op, budget %d KB", perOp>>10, budget>>10)
	}
	if objects >= objectsBudget {
		t.Fatalf("%d heap objects allocated per op, budget %d", objects, objectsBudget)
	}
}

// Allocation gate for the shape the benchmark calls tcp-overlap
// (EngineTCP, 4 ranks on 2 nodes, o-ring, 64 KiB), run blocking: bytes
// per operation. About 1 917 KB while every sealed blob and received
// ciphertext was a fresh make, about 1 045 KB since they are recycled
// per operation, 659–672 KB since same-node pairs deliver in memory, and
// 653–666 KB (about 143 objects) since block lists are shared views, and
// about 647 KB (about 93 objects) since a session keeps its rank slots.
// The race build allocates up to 664 KB; the gate is that plus 10 %.
// Bytes per op have a second mode, about 660 KB in some runs: the op in
// which, for the first time, an op's last send is still queued when the
// next op seals, so the next op's ciphertext buffers miss the free list
// and are made once; later ones find them. A longer warm-up makes the
// mode rarer, not gone. Earlier tests of the same process also used to
// fill the free list with sizes this op does not seal, so its buffers
// were refused and made fresh every time (837 KB here); the list now
// drops idle buffers of other sizes to keep the one in use.
//
// The same shape run as the benchmark runs it, started four in flight
// and waited for oldest first, is gated on objects too: 90–94 per op
// with a scheduler goroutine, closure and future per Start, up to 100
// under the race build (11 runs, five beside two CPU-bound loops), so
// the ceiling was 110; about 44 since each rank draws from an arena its
// slot keeps and results are assembled into storage the op owns, 44 at
// most under the race build (11 runs, four beside two CPU-bound loops),
// so the ceiling is 49; about 42 since an op has no run bound, 42 at
// most under the race build (3 runs); 30 since a socket reader decodes
// each frame into its op's arena for the pair, 30 at most under the race
// build (22 runs, eight beside two CPU-bound loops), so the ceiling is
// 33.
func TestTCPOverlapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		budget         = 731 << 10
		startedObjects = 33
	)
	perOp, objects := allocsPerRun(t, Spec{Procs: 4, Nodes: 2}, AlgORing, 64<<10, 40, 0, WithEngine(EngineTCP))
	t.Logf("%d KB and %d objects allocated per 64 KiB TCP o-ring op (budget %d KB)",
		perOp>>10, objects, budget>>10)
	if perOp >= budget {
		t.Fatalf("%d KB allocated per op, budget %d KB", perOp>>10, budget>>10)
	}
	perOp, objects = allocsPerRun(t, Spec{Procs: 4, Nodes: 2}, AlgORing, 64<<10, 100, 4, WithEngine(EngineTCP))
	t.Logf("%d KB and %d objects allocated per started 64 KiB TCP o-ring op, 4 in flight (budgets %d KB, %d)",
		perOp>>10, objects, budget>>10, startedObjects)
	if perOp >= budget {
		t.Fatalf("%d KB allocated per started op, budget %d KB", perOp>>10, budget>>10)
	}
	if objects >= startedObjects {
		t.Fatalf("%d heap objects allocated per started op, budget %d", objects, startedObjects)
	}
}

// Allocation gate for the steady state BenchmarkSessionSteadyState
// calls chan/serial (EngineChan, 4 ranks on 2 nodes, o-ring, 64 KiB).
// Heap objects per blocking operation: about 439 when this gate was a
// benchmark run that CI parsed against a ceiling of 480, 290 at its
// move here, about 283 since each rank counts its own sends and
// receives from per-source FIFOs, and about 131 since block lists are
// shared views, receive queues keep their memory and a blocking exchange
// allocates no request or result slices, about 82 since a session
// keeps its rank slots from op to op, and about 76 since the gathered
// views share one backing array, and about 28 since each rank draws its
// chunk and block lists from an arena its slot keeps, group lists are
// built once per session, results are assembled into storage the op
// owns, and the send queue and the ciphertext list stop regrowing, and
// about 26 since an op has no run bound (its timer and closure); bytes
// about 652 KB, 646 KB with the rank slots. The race build allocates
// 652 KB and up to 88 objects with the rank slots, 83 since the views
// share one array, 29 with the arenas (11 runs, four beside two
// CPU-bound loops) and 26 without the run bound (3 runs); each gate is
// that maximum plus 10 %.
func TestChanSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const (
		budget        = 718 << 10
		objectsBudget = 32
	)
	perOp, objects := allocsPerRun(t, Spec{Procs: 4, Nodes: 2}, AlgORing, 64<<10, 100, 0, WithEngine(EngineChan))
	t.Logf("%d KB and %d objects allocated per 64 KiB chan o-ring op (budgets %d KB, %d)",
		perOp>>10, objects, budget>>10, objectsBudget)
	if perOp >= budget {
		t.Fatalf("%d KB allocated per op, budget %d KB", perOp>>10, budget>>10)
	}
	if objects >= objectsBudget {
		t.Fatalf("%d heap objects allocated per op, budget %d", objects, objectsBudget)
	}
}

// simAllocs returns the heap objects one warm Simulate of alg at
// msgSize allocates on a 128-rank, 8-node sim session.
func simAllocs(t *testing.T, alg Alg, msgSize int64, sims int) uint64 {
	t.Helper()
	s, err := OpenSession(context.Background(), Spec{Procs: 128, Nodes: 8}, WithEngine(EngineSim), WithProfile(Noleland()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := func() {
		t.Helper()
		if _, err := s.Simulate(context.Background(), alg, msgSize); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sims; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(sims)
}

// Allocation gate for the simulator at the benchmark's sim-paper scale
// (128 ranks on 8 nodes): heap objects per Simulate of o-rd2 at 1 KiB
// and hs2 at 16 KiB. It pins the simulator's bookkeeping: the event
// kernel, the network model and the algorithms' block lists, working
// sets and shared-memory keys. The per-byte payload patterns Session.Sim
// builds and discards are deliberately included: dropping them is a
// separate change. About 96 700 (o-rd2) and 66 800 (hs2) objects while
// block lists were copied per split, working sets were maps and shm keys
// were formatted strings; about 21 440 and 9 900 since, and about
// 21 150 and 9 650 since the validation's views share one backing array
// instead of two objects per rank, and about 20 270 and 7 990 since
// each rank draws its lists from an arena and groups are built once per
// session (a Simulate's Procs are fresh, so its arenas start empty and
// spill every draw to the heap; what fell is regrowth, per-call group
// lists and per-member result lists). The race build allocates up to
// 20 347 and 8 048 (21 239 and 9 699 before, 21 464 and 9 957 before
// that; 22 runs, eight beside two CPU-bound loops); each gate is that
// plus 10 %.
func TestSimAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, c := range []struct {
		alg    Alg
		size   int64
		budget uint64
	}{
		{AlgORD2, 1 << 10, 22382},
		{AlgHS2, 16 << 10, 8853},
	} {
		objects := simAllocs(t, c.alg, c.size, 5)
		t.Logf("%d objects allocated per %s Simulate at %d B (budget %d)", objects, c.alg, c.size, c.budget)
		if objects >= c.budget {
			t.Fatalf("%s at %d B: %d heap objects per Simulate, budget %d", c.alg, c.size, objects, c.budget)
		}
	}
}

// Allocation gate for the paper's eight algorithms in steady state on
// the chan engine (8 ranks on 4 nodes, 1 KiB): heap objects per
// blocking operation. Each rank draws its algorithm's working state,
// chunk lists and group lists from its arena, which the rank slot keeps
// from op to op, and assembles its result into storage the result owns,
// so what is left is the operation's own: its runtime, inputs, opened
// plaintext and gathered views: 36 (hs1) to 80 (naive) objects since
// the collectives' member-indexed message lists come from the arena too,
// 40 (o-rd2, hs1) to 88 (naive) before, 42 to 90 with the run bound,
// against 157 (hs1) to 235 (naive) before the arenas. Each ceiling is
// the race build's maximum over 22 runs, eight of them beside two
// CPU-bound loops, plus 10 %.
func TestPaperAlgorithmsSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	budgets := map[Alg]uint64{
		AlgNaive: 93, AlgORing: 63, AlgORD: 58, AlgORD2: 49,
		AlgCRing: 58, AlgCRD: 58, AlgHS1: 43, AlgHS2: 58,
	}
	for _, alg := range PaperAlgorithms() {
		_, objects := allocsPerRun(t, Spec{Procs: 8, Nodes: 4}, alg, 1<<10, 50, 0, WithEngine(EngineChan))
		t.Logf("%d objects allocated per 1 KiB chan %s op (budget %d)", objects, alg, budgets[alg])
		if objects >= budgets[alg] {
			t.Errorf("%s: %d heap objects allocated per op, budget %d", alg, objects, budgets[alg])
		}
	}
}
