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
	"encag/internal/seal"
)

// Rekey never waits. Four collectives stay in flight on a TCP session
// while one goroutine rekeys in a loop and a tiny seal budget adds
// automatic rotations. Every op still gathers byte-exact on the key it
// was admitted with, no plaintext reaches the wire, and the session's
// crypto totals equal the sum over every sealer generation.
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
		mu   sync.Mutex
		gens = map[*seal.Sealer]bool{}
		wg   sync.WaitGroup
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
				if err := cluster.ValidateGather(spec, m, res.Results, true); err != nil {
					t.Errorf("worker %d %s op %d: %v", w, name, i, err)
				}
				if cluster.MessageTotals(res.PerRank).PlainInterMsgs != 0 {
					t.Errorf("worker %d %s op %d leaked plaintext: %v", w, name, i, cluster.MessageTotals(res.PerRank).Violations)
				}
				mu.Lock()
				gens[res.Sealer] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-rekeyDone
	if t.Failed() {
		return
	}

	for r := 0; r < spec.P; r++ {
		if s.Sniffer().Contains(block.FillPattern(r, m)) {
			t.Fatalf("rank %d plaintext visible on the wire", r)
		}
	}
	snap := s.Snapshot()
	if explicit.Load() < 1 {
		t.Fatal("the rekey loop never ran")
	}
	if snap.Rekeys <= explicit.Load() {
		t.Fatalf("rekeys = %d with %d explicit: no rotation at the seal budget", snap.Rekeys, explicit.Load())
	}
	gens[s.Sealer()] = true
	var sealed, opened int64
	for g := range gens {
		gs, gop := g.Counts()
		sealed, opened = sealed+gs, opened+gop
	}
	if sealed != snap.SegmentsSealed || opened != snap.SegmentsOpened {
		t.Fatalf("session totals sealed=%d opened=%d, generations sum to %d/%d",
			snap.SegmentsSealed, snap.SegmentsOpened, sealed, opened)
	}
}
