package cluster_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encag/internal/block"
	"encag/internal/cluster"
	"encag/internal/encrypted"
	"encag/internal/fault"
	"encag/internal/testkit"
)

// Rekey never waits. Four collectives stay in flight on a TCP session
// while one goroutine rekeys in a loop and a tiny seal budget adds
// automatic rotations. Every op still gathers byte-exact on the key it
// was admitted with, no plaintext reaches the wire, and the session's
// crypto totals, folded over every sealer generation, equal the
// segments every op sealed and opened.
func TestRekeyUnderConcurrentTCPLoad(t *testing.T) {
	defer cluster.SetKeyBudget(2)()
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping}
	s, err := cluster.OpenSession(spec, cluster.SessionConfig{Engine: cluster.EngineTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var explicit atomic.Int64
	stop, rekeyDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rekeyDone)
		for {
			if err := s.Rekey(); err != nil {
				t.Error(err)
				return
			}
			explicit.Add(1)
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	const m, perWorker = 4 << 10, 16
	var (
		wg             sync.WaitGroup
		sealed, opened atomic.Int64
	)
	for w, name := range []string{"o-ring", "hs2", "o-ring", "hs2"} {
		alg, err := encrypted.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		w, name := w, name
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := s.Collective(context.Background(), cluster.Op{Algo: alg, MsgSize: m})
				if err != nil {
					t.Errorf("worker %d %s op %d: %v", w, name, i, err)
					return
				}
				testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
				for _, pm := range res.PerRank {
					sealed.Add(int64(pm.EncSegments))
					opened.Add(int64(pm.DecSegments))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rekeyDone
	if t.Failed() {
		return
	}

	snap := s.Snapshot()
	if explicit.Load() < 1 {
		t.Fatal("the rekey loop never ran")
	}
	if snap.Rekeys <= explicit.Load() {
		t.Fatalf("rekeys = %d with %d explicit: no rotation at the seal budget", snap.Rekeys, explicit.Load())
	}
	if sealed.Load() != snap.SegmentsSealed || opened.Load() != snap.SegmentsOpened {
		t.Fatalf("session totals sealed=%d opened=%d, ops sealed %d and opened %d",
			snap.SegmentsSealed, snap.SegmentsOpened, sealed.Load(), opened.Load())
	}
}

// The session's seal totals conserve segments, on chan, TCP and
// pipelined TCP: over twenty ops, with a Rekey right after the tenth
// while the ninth and tenth are still running under the old key, the
// growth of SegmentsSealed and SegmentsOpened equals the ops' summed
// EncSegments and DecSegments. Segments are 4 KiB, so each 16 KiB seal
// spans several of them and a pipelined o-ring streams its exit seal.
func TestSealTotalsConserveAcrossRekey(t *testing.T) {
	spec := cluster.Spec{P: 4, N: 2, Mapping: cluster.BlockMapping, SegmentSize: 4 << 10}
	const m, ops = 16 << 10, 20
	var algs []cluster.Algorithm
	for _, name := range []string{"o-ring", "hs2"} {
		alg, err := encrypted.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, alg)
	}
	// Every delivery of the two started ops waits 20 ms, so both are
	// still in flight when the key rotates.
	slow := &fault.Plan{Rules: []fault.Rule{
		{Src: -1, Dst: -1, Kind: fault.StallRead, Delay: 20 * time.Millisecond, Times: -1},
	}}
	for _, c := range []struct {
		name string
		cfg  cluster.SessionConfig
	}{
		{"chan", cluster.SessionConfig{Engine: cluster.EngineChan}},
		{"tcp", cluster.SessionConfig{Engine: cluster.EngineTCP}},
		{"tcp-pipelined", cluster.SessionConfig{Engine: cluster.EngineTCP, Pipelining: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			s, err := cluster.OpenSession(spec, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			before := s.Snapshot()
			var sealed, opened int64
			count := func(res *cluster.RealResult) {
				testkit.Contract(t, s, block.UniformSizes(spec.P, m), res)
				for _, pm := range res.PerRank {
					sealed += int64(pm.EncSegments)
					opened += int64(pm.DecSegments)
				}
			}
			type outcome struct {
				res *cluster.RealResult
				err error
			}
			started := make(chan outcome, 2)
			for i := 1; i <= ops; i++ {
				op := cluster.Op{Algo: algs[i%len(algs)], MsgSize: m}
				if i == 9 || i == 10 {
					op.Plan = slow
					if err := s.Start(ctx, op, func(res *cluster.RealResult, err error) {
						started <- outcome{res, err}
					}); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if i == 11 {
					if n := s.InFlight(); n < 2 {
						t.Fatalf("%d ops in flight at the rekey, want the 2 started ones", n)
					}
					if err := s.Rekey(); err != nil {
						t.Fatal(err)
					}
				}
				res, err := s.Collective(ctx, op)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				count(res)
			}
			for i := 0; i < 2; i++ {
				o := <-started
				if o.err != nil {
					t.Fatalf("started op: %v", o.err)
				}
				count(o.res)
			}
			after := s.Snapshot()
			if after.Rekeys != before.Rekeys+1 {
				t.Fatalf("rekeys %d -> %d, want one", before.Rekeys, after.Rekeys)
			}
			if sealed <= ops || opened <= ops {
				t.Fatalf("ops sealed %d and opened %d segments: too few to tell", sealed, opened)
			}
			if c.cfg.Pipelining && after.PipelineStreams == 0 {
				t.Fatal("pipelined session never streamed")
			}
			if d := after.SegmentsSealed - before.SegmentsSealed; d != sealed {
				t.Errorf("SegmentsSealed grew %d, ops sealed %d", d, sealed)
			}
			if d := after.SegmentsOpened - before.SegmentsOpened; d != opened {
				t.Errorf("SegmentsOpened grew %d, ops opened %d", d, opened)
			}
		})
	}
}
