// Package netsim implements a flow-level network model on top of the
// discrete-event kernel in internal/sim.
//
// The model is the classic fluid approximation used by flow-level HPC and
// datacenter simulators: a message in flight is a flow with a remaining
// byte count; all concurrently active flows share the network resources
// they traverse under max-min fairness (progressive filling), each flow
// additionally limited by a per-flow cap (the injection rate a single CPU
// core can drive, or a memcpy engine's rate for intra-node transfers).
//
// Resources modelled per node:
//
//   - a TX NIC capacity and an RX NIC capacity, consumed by inter-node
//     flows leaving/entering the node, and
//   - a memory fabric pool, consumed by intra-node flows.
//
// Because an intra-node flow touches only its node's memory pool and an
// inter-node flow touches only NICs, the max-min allocation decomposes
// exactly into N+1 independent domains (one per node plus one global
// inter-node domain); a flow arrival or departure re-rates only its own
// domain. Flows with no constrained resource at all run at their own cap
// and bypass the allocator entirely.
//
// Whenever a domain's flow set changes, that domain's rates are
// recomputed and the projected completion events rescheduled. This
// reproduces the contention effects the paper's evaluation hinges on:
// one process cannot saturate a NIC, l concurrent sub-all-gathers can,
// and cyclic process mappings that push every hop of a ring onto the NIC
// collapse under l-way sharing.
package netsim

import (
	"fmt"
	"math"

	"encag/internal/sim"
)

const epsBytes = 1e-6

// Config describes the cluster fabric.
type Config struct {
	Nodes  int     // number of nodes
	TxCap  float64 // per-node NIC transmit capacity, bytes/s (<=0 or +Inf: unlimited)
	RxCap  float64 // per-node NIC receive capacity, bytes/s
	MemCap float64 // per-node memory fabric pool for intra-node flows, bytes/s
}

type resource struct {
	cap   float64 // <= 0 or +Inf means unconstrained
	live  int     // unfrozen flows during an allocation pass
	resid float64
}

func (r *resource) constrained() bool {
	return r != nil && r.cap > 0 && !math.IsInf(r.cap, 1)
}

// Flow is a transfer in flight.
type Flow struct {
	net       *Network
	src, dst  int
	cap       float64
	remaining float64
	rate      float64
	last      float64
	res       [2]*resource // nil entries unused
	domain    int          // allocation domain, -1 for unconstrained fast path
	done      *sim.Signal
	finish    *sim.Event
	frozen    bool // scratch for allocation
}

// Done returns a sticky signal fired when the flow completes.
func (f *Flow) Done() *sim.Signal { return f.done }

// WaitDone suspends p until the flow completes.
func (f *Flow) WaitDone(p *sim.Proc) { f.done.Wait(p) }

// domainState is one independent allocation component.
type domainState struct {
	flows     []*Flow // insertion-ordered for determinism
	resources []*resource
	pending   bool // recalc scheduled
	finished  []*Flow
}

// Network is the fabric: per-node NIC and memory resources plus the set
// of active flows.
type Network struct {
	env     *sim.Env
	cfg     Config
	tx      []resource
	rx      []resource
	mem     []resource
	domains []*domainState // 0..N-1: per-node intra; N: global inter

	// Statistics.
	FlowsStarted  int
	BytesInjected float64
	InterBytes    float64
	IntraBytes    float64
	active        int
}

// New creates a network over the given environment.
func New(env *sim.Env, cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic(fmt.Sprintf("netsim: invalid node count %d", cfg.Nodes))
	}
	n := &Network{
		env: env,
		cfg: cfg,
		tx:  make([]resource, cfg.Nodes),
		rx:  make([]resource, cfg.Nodes),
		mem: make([]resource, cfg.Nodes),
	}
	n.domains = make([]*domainState, cfg.Nodes+1)
	inter := &domainState{}
	for i := 0; i < cfg.Nodes; i++ {
		n.tx[i].cap = cfg.TxCap
		n.rx[i].cap = cfg.RxCap
		n.mem[i].cap = cfg.MemCap
		d := &domainState{}
		if (&n.mem[i]).constrained() {
			d.resources = []*resource{&n.mem[i]}
		}
		n.domains[i] = d
		if (&n.tx[i]).constrained() {
			inter.resources = append(inter.resources, &n.tx[i])
		}
		if (&n.rx[i]).constrained() {
			inter.resources = append(inter.resources, &n.rx[i])
		}
	}
	n.domains[cfg.Nodes] = inter
	return n
}

// Env returns the simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// StartFlow begins transferring bytes from node src to node dst, limited
// by flowCap (bytes/s; <=0 or +Inf means no per-flow cap). It returns the
// Flow, whose Done signal fires on completion. Zero-byte flows complete
// via a zero-delay event.
func (n *Network) StartFlow(src, dst int, bytes, flowCap float64) *Flow {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		panic(fmt.Sprintf("netsim: flow endpoints out of range: %d -> %d (nodes=%d)", src, dst, n.cfg.Nodes))
	}
	if bytes < 0 {
		bytes = 0
	}
	if flowCap <= 0 {
		flowCap = math.Inf(1)
	}
	f := &Flow{
		net:       n,
		src:       src,
		dst:       dst,
		cap:       flowCap,
		remaining: bytes,
		last:      n.env.Now(),
		done:      sim.NewSignal(n.env),
		domain:    -1,
	}
	if src == dst {
		if (&n.mem[src]).constrained() {
			f.res[0] = &n.mem[src]
			f.domain = src
		}
		n.IntraBytes += bytes
	} else {
		if (&n.tx[src]).constrained() {
			f.res[0] = &n.tx[src]
		}
		if (&n.rx[dst]).constrained() {
			f.res[1] = &n.rx[dst]
		}
		if f.res[0] != nil || f.res[1] != nil {
			f.domain = n.cfg.Nodes
		}
		n.InterBytes += bytes
	}
	n.FlowsStarted++
	n.BytesInjected += bytes

	if f.domain < 0 {
		// Unconstrained fast path: runs at its own cap, interacts with
		// nobody.
		n.active++
		if math.IsInf(f.cap, 1) || bytes <= epsBytes {
			n.env.Schedule(0, func() { n.fastFinish(f) })
			return f
		}
		f.rate = f.cap
		f.finish = n.env.Schedule(bytes/f.cap, func() { n.fastFinish(f) })
		return f
	}

	d := n.domains[f.domain]
	d.flows = append(d.flows, f)
	n.active++
	n.scheduleRecalc(f.domain)
	return f
}

func (n *Network) fastFinish(f *Flow) {
	f.remaining = 0
	f.rate = 0
	f.finish = nil
	n.active--
	f.done.Fire()
}

func (n *Network) scheduleRecalc(domain int) {
	d := n.domains[domain]
	if d.pending {
		return
	}
	d.pending = true
	n.env.Schedule(0, func() {
		d.pending = false
		n.recalc(d)
	})
}

// recalc advances every active flow of the domain to the current time at
// its old rate, recomputes the max-min fair allocation, finishes drained
// flows, and reschedules completion events.
func (n *Network) recalc(d *domainState) {
	now := n.env.Now()
	for _, f := range d.flows {
		f.remaining -= f.rate * (now - f.last)
		if f.remaining < 0 {
			f.remaining = 0
		}
		f.last = now
	}
	allocate(d)
	d.finished = d.finished[:0]
	for _, f := range d.flows {
		if f.finish != nil {
			n.env.Cancel(f.finish)
			f.finish = nil
		}
		if f.remaining <= epsBytes {
			d.finished = append(d.finished, f)
			continue
		}
		if f.rate <= 0 {
			// No capacity at all: this is a configuration error, since
			// every resource has positive capacity. Treat as stall; it
			// will surface as a sim deadlock, which is the right signal.
			continue
		}
		f := f
		f.finish = n.env.Schedule(f.remaining/f.rate, func() {
			f.remaining = 0
			f.last = n.env.Now()
			n.finishFlow(d, f)
			n.scheduleRecalc(f.domain)
		})
	}
	for _, f := range d.finished {
		n.finishFlow(d, f)
	}
}

func (n *Network) finishFlow(d *domainState, f *Flow) {
	idx := -1
	for i, g := range d.flows {
		if g == f {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	d.flows = append(d.flows[:idx], d.flows[idx+1:]...)
	if f.finish != nil {
		n.env.Cancel(f.finish)
		f.finish = nil
	}
	f.rate = 0
	n.active--
	f.done.Fire()
}

// allocate computes max-min fair rates with per-flow caps by progressive
// filling over one domain.
func allocate(d *domainState) {
	if len(d.flows) == 0 {
		return
	}
	for _, r := range d.resources {
		r.resid = r.cap
		r.live = 0
	}
	unfrozen := 0
	for _, f := range d.flows {
		f.rate = 0
		f.frozen = false
		unfrozen++
		for _, r := range f.res {
			if r != nil {
				r.live++
			}
		}
	}
	for unfrozen > 0 {
		delta := math.Inf(1)
		for _, r := range d.resources {
			if r.live > 0 {
				if s := r.resid / float64(r.live); s < delta {
					delta = s
				}
			}
		}
		for _, f := range d.flows {
			if !f.frozen {
				if h := f.cap - f.rate; h < delta {
					delta = h
				}
			}
		}
		if math.IsInf(delta, 1) {
			// All remaining flows are unconstrained (no finite cap, no
			// constrained resource): give them effectively infinite rate.
			for _, f := range d.flows {
				if !f.frozen {
					f.rate = math.MaxFloat64 / 4
					f.frozen = true
					unfrozen--
				}
			}
			break
		}
		if delta < 0 {
			delta = 0
		}
		for _, f := range d.flows {
			if !f.frozen {
				f.rate += delta
			}
		}
		for _, r := range d.resources {
			r.resid -= delta * float64(r.live)
			if r.resid < 0 {
				r.resid = 0
			}
		}
		progressed := false
		for _, f := range d.flows {
			if f.frozen {
				continue
			}
			saturated := f.rate >= f.cap-1e-12
			for _, r := range f.res {
				if r != nil && r.resid <= r.cap*1e-12+1e-9 {
					saturated = true
				}
			}
			if saturated {
				f.frozen = true
				unfrozen--
				for _, r := range f.res {
					if r != nil {
						r.live--
					}
				}
				progressed = true
			}
		}
		if !progressed && delta == 0 {
			// Defensive: avoid an infinite loop on numerically odd input.
			for _, f := range d.flows {
				if !f.frozen {
					f.frozen = true
					unfrozen--
				}
			}
		}
	}
}
