package cluster

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"encag/internal/block"
	"encag/internal/cost"
	"encag/internal/netsim"
	"encag/internal/seal"
	"encag/internal/sim"
)

// TraceKind labels what a rank was doing during a TraceEvent.
type TraceKind uint8

// Trace event kinds emitted by the sim engine.
const (
	TraceSend TraceKind = iota
	TraceRecv
	TraceEncrypt
	TraceDecrypt
	TraceCopy
	TraceBarrier
)

func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceRecv:
		return "recv"
	case TraceEncrypt:
		return "encrypt"
	case TraceDecrypt:
		return "decrypt"
	case TraceCopy:
		return "copy"
	case TraceBarrier:
		return "barrier"
	}
	return "unknown"
}

// TraceEvent is one interval of activity on one rank, in virtual time.
type TraceEvent struct {
	Rank  int
	Kind  TraceKind
	Start float64 // seconds
	End   float64
	Bytes int64
	Peer  int // other rank for send/recv, -1 otherwise
	// Op is the session operation id the interval belongs to; 0 for
	// one-shot runs and the sim engine (which runs one op at a time).
	Op uint32
}

// Tracer receives the sim engine's activity intervals as they complete.
type Tracer interface {
	Record(ev TraceEvent)
}

type msgQueue struct {
	msgs []block.Message
	gate *sim.Signal
}

type simEngine struct {
	spec   Spec
	prof   cost.Profile
	env    *sim.Env
	net    *netsim.Network
	sprocs []*sim.Proc
	queues [][]*msgQueue // [dst][src], created lazily
	shm    []map[ShmKey]block.Message
	bars   []*simBarrier
	tracer Tracer // nil unless the operation is traced
}

func (e *simEngine) trace(ev TraceEvent) {
	if e.tracer != nil {
		e.tracer.Record(ev)
	}
}

type simBarrier struct {
	env     *sim.Env
	n       int
	arrived int
	gate    *sim.Signal
}

func (b *simBarrier) await(sp *sim.Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		old := b.gate
		b.gate = sim.NewGate(b.env)
		old.Fire()
		return
	}
	b.gate.Wait(sp)
}

type simSendReq struct{ flow *netsim.Flow }
type simRecvReq struct{ src int }

func (simSendReq) isRequest() {}
func (simRecvReq) isRequest() {}

func (e *simEngine) sproc(p *Proc) *sim.Proc {
	sp := e.sprocs[p.rank]
	if sp == nil {
		panic(fmt.Sprintf("cluster: sim rank %d used before start", p.rank))
	}
	return sp
}

func (e *simEngine) queue(dst, src int) *msgQueue {
	q := e.queues[dst][src]
	if q == nil {
		q = &msgQueue{gate: sim.NewGate(e.env)}
		e.queues[dst][src] = q
	}
	return q
}

func (e *simEngine) isend(p *Proc, dst int, msg block.Message, _ *seal.SealStream, _ bool) Request {
	sp := e.sproc(p)
	src := p.rank
	srcNode, dstNode := e.spec.NodeOf(src), e.spec.NodeOf(dst)
	alpha := e.prof.AlphaInter
	flowCap := e.prof.CoreBW
	if srcNode == dstNode {
		alpha = e.prof.AlphaIntra
		flowCap = e.prof.MemFlowBW
	}
	// The startup cost occupies the sender before any bytes move.
	start := sp.Now()
	sp.Wait(alpha)
	flow := e.net.StartFlow(srcNode, dstNode, float64(msg.WireLen()), flowCap)
	flow.Done().OnFire(func() {
		q := e.queue(dst, src)
		q.msgs = append(q.msgs, msg)
		q.gate.Fire()
		e.trace(TraceEvent{Rank: src, Kind: TraceSend, Start: start, End: e.env.Now(), Bytes: msg.WireLen(), Peer: dst})
	})
	return simSendReq{flow: flow}
}

func (e *simEngine) irecv(p *Proc, src int) Request {
	return simRecvReq{src: src}
}

func (e *simEngine) wait(p *Proc, req Request) block.Message {
	sp := e.sproc(p)
	switch rr := req.(type) {
	case simSendReq:
		rr.flow.WaitDone(sp)
		return block.Message{}
	case simRecvReq:
		start := sp.Now()
		q := e.queue(p.rank, rr.src)
		for len(q.msgs) == 0 {
			q.gate.Wait(sp)
		}
		msg := q.msgs[0]
		q.msgs = q.msgs[1:]
		e.trace(TraceEvent{Rank: p.rank, Kind: TraceRecv, Start: start, End: sp.Now(), Bytes: msg.WireLen(), Peer: rr.src})
		return msg
	default:
		panic(fmt.Sprintf("cluster: foreign request type %T in sim engine", req))
	}
}

// span charges the modelled cost of a compute phase up front in virtual
// time (there is no real work to bracket in sim mode) and returns a
// no-op closer.
func (e *simEngine) span(p *Proc, kind TraceKind, n int64) func() {
	sp := e.sproc(p)
	start := sp.Now()
	var c float64
	switch kind {
	case TraceEncrypt:
		c = e.prof.EncryptTime(n)
	case TraceDecrypt:
		c = e.prof.DecryptTime(n)
	case TraceCopy:
		c = e.prof.CopyTime(n)
	default:
		panic(fmt.Sprintf("cluster: sim span for non-compute kind %v", kind))
	}
	sp.Wait(c)
	e.trace(TraceEvent{Rank: p.rank, Kind: kind, Start: start, End: sp.Now(), Bytes: n, Peer: -1})
	return noopSpan
}

func (e *simEngine) shmPut(p *Proc, key ShmKey, msg block.Message) {
	e.shm[p.Node()][key] = msg
}

func (e *simEngine) shmGet(p *Proc, key ShmKey) (block.Message, bool) {
	msg, ok := e.shm[p.Node()][key]
	return msg, ok
}

func (e *simEngine) nodeBarrier(p *Proc) {
	sp := e.sproc(p)
	start := sp.Now()
	if c := e.prof.BarrierTime(e.spec.Ell()); c > 0 {
		sp.Wait(c)
	}
	e.bars[p.Node()].await(sp)
	e.trace(TraceEvent{Rank: p.rank, Kind: TraceBarrier, Start: start, End: sp.Now(), Peer: -1})
}

func (e *simEngine) sealer() *seal.Sealer { return nil }

// alloc is never reached in sim mode, which seals nothing.
func (e *simEngine) alloc(n int) []byte { return make([]byte, n) }

// pipeline is always off in sim mode: there are no real bytes to
// stream, so the model keeps whole-message sends.
func (e *simEngine) pipeline() bool { return false }

// aad appends the header alone: the sim models crypto cost without real
// keys, so there is no cross-operation authentication to bind.
func (e *simEngine) aad(dst []byte, blocks []block.Block) []byte {
	return block.AppendHeader(dst, blocks)
}

// SimResult is the outcome of one Session.Sim.
type SimResult struct {
	Latency    float64       // modelled completion time of the last rank, seconds
	LatencyD   time.Duration // same, as a Duration
	PerRank    []Metrics
	Critical   Critical
	Results    []block.Message
	EndTimes   []float64
	InterBytes float64 // total bytes that crossed node boundaries
	IntraBytes float64
}

// simGC counts the simulations running in the process. Their events,
// flows and messages churn the heap, so the first one to start relaxes
// the collector and the last one to end restores the caller's setting;
// a save and restore per run would leave overlapping runs relaxed.
var simGC struct {
	sync.Mutex
	running, saved int
}

// relaxGC(+1) counts a simulation in and relaxGC(-1) counts it out.
func relaxGC(delta int) {
	simGC.Lock()
	defer simGC.Unlock()
	if simGC.running += delta; delta > 0 && simGC.running == 1 {
		simGC.saved = debug.SetGCPercent(400)
	} else if simGC.running == 0 {
		debug.SetGCPercent(simGC.saved)
	}
}

// runSim executes algo on every rank inside the discrete-event simulator
// under the given machine profile and returns the modelled latency along
// with the same metrics and logical results as the real engine (payloads
// are symbolic). A tracer receives every send, receive, encryption,
// decryption, copy and barrier interval of every rank, in virtual time.
// OpenSession validated spec and prof once for the session.
func runSim(spec Spec, lay *layout, prof cost.Profile, sizes []int64, algo Algorithm, tracer Tracer) (*SimResult, error) {
	relaxGC(1)
	defer relaxGC(-1)
	env := sim.NewEnv()
	net := netsim.New(env, netsim.Config{
		Nodes:  spec.N,
		TxCap:  prof.NICTx,
		RxCap:  prof.NICRx,
		MemCap: prof.MemPool,
	})
	e := &simEngine{
		spec:   spec,
		prof:   prof,
		env:    env,
		net:    net,
		sprocs: make([]*sim.Proc, spec.P),
		queues: make([][]*msgQueue, spec.P),
		shm:    make([]map[ShmKey]block.Message, spec.N),
		bars:   make([]*simBarrier, spec.N),
		tracer: tracer,
	}
	for r := 0; r < spec.P; r++ {
		e.queues[r] = make([]*msgQueue, spec.P)
	}
	for n := 0; n < spec.N; n++ {
		e.shm[n] = make(map[ShmKey]block.Message)
		e.bars[n] = &simBarrier{env: env, n: spec.Ell(), gate: sim.NewGate(env)}
	}

	res := &SimResult{
		PerRank:  make([]Metrics, spec.P),
		Results:  make([]block.Message, spec.P),
		EndTimes: make([]float64, spec.P),
	}
	out := newResults(sizes)
	for r := 0; r < spec.P; r++ {
		r := r
		env.Go(fmt.Sprintf("rank%d", r), func(sp *sim.Proc) {
			e.sprocs[r] = sp
			p := &Proc{rank: r, spec: spec, lay: lay, met: &res.PerRank[r], eng: e, sizes: sizes, out: out}
			res.Results[r] = algo(p, p.contribution(nil, sizes[r]))
			res.EndTimes[r] = sp.Now()
		})
	}
	// Run returns nil only once every rank has returned.
	if err := env.Run(); err != nil {
		return nil, fmt.Errorf("cluster: sim run failed on %v: %w", spec, err)
	}
	for _, end := range res.EndTimes {
		res.Latency = math.Max(res.Latency, end)
	}
	res.LatencyD = time.Duration(res.Latency * float64(time.Second))
	res.Critical = CriticalPath(res.PerRank)
	res.InterBytes = net.InterBytes
	res.IntraBytes = net.IntraBytes
	return res, nil
}
