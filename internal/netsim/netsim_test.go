package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"encag/internal/sim"
)

func run(t *testing.T, e *sim.Env) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// finishTime runs a closure inside a sim process and reports the virtual
// time at which the flow it returns completes.
func flowFinish(t *testing.T, cfg Config, script func(p *sim.Proc, n *Network) *Flow) float64 {
	t.Helper()
	e := sim.NewEnv()
	n := New(e, cfg)
	var end float64 = -1
	e.Go("driver", func(p *sim.Proc) {
		f := script(p, n)
		f.WaitDone(p)
		end = p.Now()
	})
	run(t, e)
	return end
}

func TestSingleFlowCoreLimited(t *testing.T) {
	// NIC 12.5 GB/s, core cap 10 GB/s: a lone flow runs at the core cap.
	end := flowFinish(t, Config{Nodes: 2, TxCap: 12.5e9, RxCap: 12.5e9, MemCap: 40e9},
		func(p *sim.Proc, n *Network) *Flow {
			return n.StartFlow(0, 1, 10e9, 10e9)
		})
	if math.Abs(end-1.0) > 1e-9 {
		t.Fatalf("finish = %g s, want 1.0 (core-limited)", end)
	}
}

func TestSingleFlowNICLimited(t *testing.T) {
	// Core cap above NIC: NIC limits.
	end := flowFinish(t, Config{Nodes: 2, TxCap: 5e9, RxCap: 5e9, MemCap: 40e9},
		func(p *sim.Proc, n *Network) *Flow {
			return n.StartFlow(0, 1, 10e9, 50e9)
		})
	if math.Abs(end-2.0) > 1e-9 {
		t.Fatalf("finish = %g s, want 2.0 (NIC-limited)", end)
	}
}

func TestTwoFlowsShareNIC(t *testing.T) {
	// Two flows out of node 0 to different destinations share the TX NIC
	// equally: each gets 5 GB/s, so 10 GB each takes 2 s.
	e := sim.NewEnv()
	n := New(e, Config{Nodes: 3, TxCap: 10e9, RxCap: 10e9, MemCap: 40e9})
	ends := make([]float64, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("f", func(p *sim.Proc) {
			f := n.StartFlow(0, 1+i, 10e9, math.Inf(1))
			f.WaitDone(p)
			ends[i] = p.Now()
		})
	}
	run(t, e)
	for i, end := range ends {
		if math.Abs(end-2.0) > 1e-9 {
			t.Fatalf("flow %d finish = %g, want 2.0", i, end)
		}
	}
}

func TestFairShareRespectsFlowCap(t *testing.T) {
	// Flow A capped at 2 GB/s, flow B uncapped; NIC 10 GB/s. Max-min: A
	// gets 2, B gets 8. A: 2GB/2GBps=1s. B: 16GB/8GBps=2s... but when A
	// finishes at t=1, B re-rates to 10 GB/s with 8 GB left: finishes at
	// t=1.8.
	e := sim.NewEnv()
	n := New(e, Config{Nodes: 2, TxCap: 10e9, RxCap: 10e9, MemCap: 40e9})
	var endA, endB float64
	e.Go("a", func(p *sim.Proc) {
		f := n.StartFlow(0, 1, 2e9, 2e9)
		f.WaitDone(p)
		endA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		f := n.StartFlow(0, 1, 16e9, math.Inf(1))
		f.WaitDone(p)
		endB = p.Now()
	})
	run(t, e)
	if math.Abs(endA-1.0) > 1e-9 {
		t.Fatalf("capped flow finish = %g, want 1.0", endA)
	}
	if math.Abs(endB-1.8) > 1e-9 {
		t.Fatalf("uncapped flow finish = %g, want 1.8", endB)
	}
}

func TestLateArrivalReRates(t *testing.T) {
	// Flow A starts alone at 10 GB/s; at t=0.5 flow B arrives and they
	// share 5/5. A has 5 GB left -> 1 more second -> t=1.5.
	e := sim.NewEnv()
	n := New(e, Config{Nodes: 2, TxCap: 10e9, RxCap: 10e9, MemCap: 40e9})
	var endA float64
	e.Go("a", func(p *sim.Proc) {
		f := n.StartFlow(0, 1, 10e9, math.Inf(1))
		f.WaitDone(p)
		endA = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		p.Wait(0.5)
		f := n.StartFlow(0, 1, 100e9, math.Inf(1))
		f.WaitDone(p)
	})
	run(t, e)
	if math.Abs(endA-1.5) > 1e-6 {
		t.Fatalf("flow A finish = %g, want 1.5", endA)
	}
}

func TestIntraNodeUsesMemPool(t *testing.T) {
	// Intra-node flow ignores NIC caps and uses the memory pool.
	end := flowFinish(t, Config{Nodes: 2, TxCap: 1, RxCap: 1, MemCap: 20e9},
		func(p *sim.Proc, n *Network) *Flow {
			return n.StartFlow(1, 1, 10e9, math.Inf(1))
		})
	if math.Abs(end-0.5) > 1e-9 {
		t.Fatalf("intra flow finish = %g, want 0.5", end)
	}
}

func TestZeroByteFlowCompletesImmediately(t *testing.T) {
	end := flowFinish(t, Config{Nodes: 2, TxCap: 10e9, RxCap: 10e9, MemCap: 40e9},
		func(p *sim.Proc, n *Network) *Flow {
			return n.StartFlow(0, 1, 0, 10e9)
		})
	if end != 0 {
		t.Fatalf("zero-byte flow finish = %g, want 0", end)
	}
}

func TestUnconstrainedNetwork(t *testing.T) {
	// All capacities unlimited, flow cap set: per-flow cap governs.
	end := flowFinish(t, Config{Nodes: 2},
		func(p *sim.Proc, n *Network) *Flow {
			return n.StartFlow(0, 1, 3e9, 1e9)
		})
	if math.Abs(end-3.0) > 1e-9 {
		t.Fatalf("finish = %g, want 3.0", end)
	}
}

func TestRxSideContention(t *testing.T) {
	// Many senders into one receiver: RX NIC is the bottleneck.
	e := sim.NewEnv()
	n := New(e, Config{Nodes: 5, TxCap: 10e9, RxCap: 10e9, MemCap: 40e9})
	var last float64
	for i := 1; i < 5; i++ {
		i := i
		e.Go("s", func(p *sim.Proc) {
			f := n.StartFlow(i, 0, 10e9, math.Inf(1))
			f.WaitDone(p)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	run(t, e)
	// 4 x 10 GB into a 10 GB/s RX port: 4 s.
	if math.Abs(last-4.0) > 1e-6 {
		t.Fatalf("last finish = %g, want 4.0", last)
	}
}

// Property: total bytes are conserved and finish time is at least
// bytes/maxRate and at most bytes/minShare for a batch of identical flows
// over one NIC.
func TestQuickBatchOverOneNIC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := rng.Intn(12) + 1
		bytes := float64(rng.Intn(1<<20) + 1)
		nic := 10e9
		coreCap := 3e9
		e := sim.NewEnv()
		n := New(e, Config{Nodes: 2, TxCap: nic, RxCap: nic, MemCap: 40e9})
		var last float64
		for i := 0; i < k; i++ {
			e.Go("s", func(p *sim.Proc) {
				fl := n.StartFlow(0, 1, bytes, coreCap)
				fl.WaitDone(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		perFlow := math.Min(coreCap, nic/float64(k))
		want := bytes / perFlow
		return math.Abs(last-want) < want*1e-6+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with staggered arrivals, all flows eventually finish and the
// network drains (ActiveFlows -> 0), and no flow finishes before
// bytes/min(cap,nic) after its start.
func TestQuickStaggeredArrivalsDrain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEnv()
		nodes := rng.Intn(6) + 2
		n := New(e, Config{Nodes: nodes, TxCap: 12.5e9, RxCap: 12.5e9, MemCap: 40e9})
		k := rng.Intn(20) + 1
		ok := true
		for i := 0; i < k; i++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes)
			bytes := float64(rng.Intn(1 << 22))
			start := rng.Float64() * 1e-3
			e.Go("s", func(p *sim.Proc) {
				p.Wait(start)
				fl := n.StartFlow(src, dst, bytes, 11e9)
				fl.WaitDone(p)
				minTime := bytes / 12.5e9
				if src == dst {
					minTime = bytes / 40e9
				}
				if p.Now()-start < minTime-1e-9 {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok && n.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	replay := func() []float64 {
		e := sim.NewEnv()
		n := New(e, Config{Nodes: 4, TxCap: 12.5e9, RxCap: 12.5e9, MemCap: 40e9})
		ends := make([]float64, 16)
		for i := 0; i < 16; i++ {
			i := i
			e.Go("s", func(p *sim.Proc) {
				p.Wait(float64(i%3) * 1e-4)
				f := n.StartFlow(i%4, (i+1)%4, float64(1+i)*1e6, 11e9)
				f.WaitDone(p)
				ends[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return ends
	}
	a, b := replay(), replay()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic finish times: run1[%d]=%g run2[%d]=%g", i, a[i], i, b[i])
		}
	}
}

// Domains are truly independent: intra-node flows on one node never
// affect intra-node flows on another node or inter-node flows, so
// completion times equal the isolated predictions even when all run
// concurrently.
func TestDomainIndependence(t *testing.T) {
	e := sim.NewEnv()
	n := New(e, Config{Nodes: 3, TxCap: 10e9, RxCap: 10e9, MemCap: 20e9})
	type result struct{ end float64 }
	var intra0, intra1, inter result
	// Two intra flows on node 0 share its 20 GB/s pool: 10 GB each -> 1 s... each gets 10e9.
	e.Go("a", func(p *sim.Proc) {
		f := n.StartFlow(0, 0, 10e9, math.Inf(1))
		f.WaitDone(p)
		intra0.end = p.Now()
	})
	e.Go("b", func(p *sim.Proc) {
		f := n.StartFlow(0, 0, 10e9, math.Inf(1))
		f.WaitDone(p)
	})
	// One intra flow on node 1 gets the whole pool: 10 GB -> 0.5 s.
	e.Go("c", func(p *sim.Proc) {
		f := n.StartFlow(1, 1, 10e9, math.Inf(1))
		f.WaitDone(p)
		intra1.end = p.Now()
	})
	// One inter-node flow 1->2 at full NIC: 10 GB -> 1 s.
	e.Go("d", func(p *sim.Proc) {
		f := n.StartFlow(1, 2, 10e9, math.Inf(1))
		f.WaitDone(p)
		inter.end = p.Now()
	})
	run(t, e)
	if math.Abs(intra0.end-1.0) > 1e-9 {
		t.Errorf("shared node-0 pool flow end = %g, want 1.0", intra0.end)
	}
	if math.Abs(intra1.end-0.5) > 1e-9 {
		t.Errorf("node-1 pool flow end = %g, want 0.5 (unaffected by node 0)", intra1.end)
	}
	if math.Abs(inter.end-1.0) > 1e-9 {
		t.Errorf("inter flow end = %g, want 1.0 (unaffected by memory pools)", inter.end)
	}
}

// ActiveFlows returns the number of in-flight flows.
func (n *Network) ActiveFlows() int { return n.active }
