package cluster

import (
	"sync"
	"testing"

	"encag/internal/block"
)

// lockedTrace is a minimal goroutine-safe Tracer for engine tests
// (mirrors trace.Collector without the import cycle).
type lockedTrace struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (l *lockedTrace) Record(ev TraceEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *lockedTrace) byKind() map[TraceKind][]TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[TraceKind][]TraceEvent)
	for _, ev := range l.events {
		out[ev.Kind] = append(out[ev.Kind], ev)
	}
	return out
}

func checkTracedRun(t *testing.T, spec Spec, res *RealResult, tr *lockedTrace) {
	t.Helper()
	byKind := tr.byKind()
	for _, k := range []TraceKind{TraceSend, TraceRecv, TraceEncrypt, TraceDecrypt} {
		if len(byKind[k]) == 0 {
			t.Errorf("no %v events traced", k)
		}
	}
	horizon := res.Elapsed.Seconds()
	perRank := make([]struct{ enc, dec int64 }, spec.P)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, ev := range tr.events {
		if ev.Rank < 0 || ev.Rank >= spec.P {
			t.Fatalf("bad rank: %+v", ev)
		}
		if ev.End < ev.Start || ev.Start < 0 {
			t.Fatalf("bad interval: %+v", ev)
		}
		if ev.End > horizon+0.5 {
			t.Fatalf("event past the run's elapsed window: %+v vs %g", ev, horizon)
		}
		switch ev.Kind {
		case TraceEncrypt:
			perRank[ev.Rank].enc += ev.Bytes
		case TraceDecrypt:
			perRank[ev.Rank].dec += ev.Bytes
		case TraceSend, TraceRecv:
			if ev.Peer < 0 || ev.Peer >= spec.P {
				t.Fatalf("send/recv without a peer: %+v", ev)
			}
		}
	}
	// Wall-clock trace byte totals must agree exactly with the metric
	// counters — the same Encrypt/Decrypt calls feed both.
	for r := 0; r < spec.P; r++ {
		if perRank[r].enc != res.PerRank[r].EncBytes {
			t.Errorf("rank %d traced enc bytes %d != metrics %d", r, perRank[r].enc, res.PerRank[r].EncBytes)
		}
		if perRank[r].dec != res.PerRank[r].DecBytes {
			t.Errorf("rank %d traced dec bytes %d != metrics %d", r, perRank[r].dec, res.PerRank[r].DecBytes)
		}
	}
}

func TestEngineTraced(t *testing.T) {
	spec := Spec{P: 8, N: 4, Mapping: BlockMapping}
	for _, engine := range opEngines {
		tr := &lockedTrace{}
		res, err := RunOnce(spec, SessionConfig{Engine: engine, Tracer: tr}, Op{Algo: encRing, MsgSize: 256})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if err := ValidateGather(spec, 256, res.Results, true); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		checkTracedRun(t, spec, res, tr)
	}
}

// Barriers and copies must show up in wall-clock traces from algorithms
// that use shared memory staging.
func TestRealEngineTracedBarrierAndCopy(t *testing.T) {
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping}
	algo := func(p *Proc, mine block.Message) block.Message {
		p.ShmPut(shmKey("trc", p.Rank()), mine)
		p.CopyCharge(mine.WireLen())
		p.NodeBarrier()
		var node block.Message
		for _, r := range p.Spec().RanksOnNode(p.Node()) {
			node = block.Concat(node, p.ShmGet(shmKey("trc", r)))
		}
		if p.IsLeader() {
			ct := p.Encrypt(node.Chunks...)
			other := p.Spec().Leader(1 - p.Node())
			in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
			p.ShmPut(shmKey("trc-remote", -1), p.DecryptAll(in))
		}
		p.NodeBarrier()
		return block.Concat(node, p.ShmGet(shmKey("trc-remote", -1)))
	}
	tr := &lockedTrace{}
	res, err := RunOnce(spec, SessionConfig{Tracer: tr}, Op{Algo: algo, MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, 64, res.Results, true); err != nil {
		t.Fatal(err)
	}
	byKind := tr.byKind()
	if got := len(byKind[TraceBarrier]); got != 2*spec.P {
		t.Errorf("traced %d barrier events, want %d (two per rank)", got, 2*spec.P)
	}
	if got := len(byKind[TraceCopy]); got != spec.P {
		t.Errorf("traced %d copy events, want %d (one per rank)", got, spec.P)
	}
}

// A nil tracer must keep both engines on their zero-overhead path.
func TestUntracedRunsStillWork(t *testing.T) {
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	for _, engine := range opEngines {
		if _, err := RunOnce(spec, SessionConfig{Engine: engine}, Op{Algo: encRing, MsgSize: 128}); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
	}
}
