package cluster

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"encag/internal/block"
	"encag/internal/cost"
)

// auditedRunOnce is RunOnce that also checks that every seal of the
// op drew its nonce from the session sealer's one counter: the sealer's
// invocation count grows by exactly the op's summed EncSegments. A nonce
// is the sealer's fixed field plus that counter, so no two seals of the
// op share one.
func auditedRunOnce(spec Spec, cfg SessionConfig, op Op) (*RealResult, error) {
	s, err := OpenSession(spec, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	before := s.Sealer().Invocations()
	res, err := s.Collective(context.Background(), op)
	if err != nil {
		return nil, err
	}
	var segs uint64
	for _, m := range res.PerRank {
		segs += uint64(m.EncSegments)
	}
	if got := s.Sealer().Invocations() - before; got != segs {
		return nil, fmt.Errorf("sealer invoked %d times for %d sealed segments", got, segs)
	}
	return res, nil
}

// ringPlain is a minimal unencrypted ring all-gather used to exercise the
// engines; the production algorithms live in internal/collective.
func ringPlain(p *Proc, mine block.Message) block.Message {
	result := mine.Clone()
	cur := mine
	next := (p.Rank() + 1) % p.P()
	prev := (p.Rank() - 1 + p.P()) % p.P()
	for i := 0; i < p.P()-1; i++ {
		cur = p.SendRecv(next, cur, prev)
		result = block.Concat(result, cur)
	}
	return result
}

func TestSpecMappings(t *testing.T) {
	b := Spec{P: 8, N: 2, Mapping: BlockMapping}
	if b.NodeOf(0) != 0 || b.NodeOf(3) != 0 || b.NodeOf(4) != 1 || b.NodeOf(7) != 1 {
		t.Fatal("block mapping wrong")
	}
	c := Spec{P: 8, N: 2, Mapping: CyclicMapping}
	if c.NodeOf(0) != 0 || c.NodeOf(1) != 1 || c.NodeOf(2) != 0 || c.NodeOf(7) != 1 {
		t.Fatal("cyclic mapping wrong")
	}
	ranks := c.RanksOnNode(1)
	want := []int{1, 3, 5, 7}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("cyclic RanksOnNode(1) = %v, want %v", ranks, want)
		}
	}
	if c.Leader(1) != 1 || b.Leader(1) != 4 {
		t.Fatal("leader wrong")
	}
	if c.LocalIndex(5) != 2 {
		t.Fatalf("LocalIndex(5) cyclic = %d, want 2", c.LocalIndex(5))
	}
	// The rank-ordered traversal is the session layout's node lists, in
	// node order.
	ro := slices.Concat(newLayout(c).nodes...)
	if len(ro) != 8 || ro[0] != 0 || ro[1] != 2 || ro[4] != 1 {
		t.Fatalf("rank order cyclic = %v", ro)
	}
}

// Leader and LocalIndex compute their answer per mapping instead of
// building a node's rank list; they must agree with RanksOnNode on every
// mapping, at rank and node counts that are not powers of two.
func TestTopologyQueriesMatchRanksOnNode(t *testing.T) {
	for _, spec := range []Spec{
		{P: 12, N: 3, Mapping: BlockMapping},
		{P: 15, N: 5, Mapping: BlockMapping},
		{P: 12, N: 3, Mapping: CyclicMapping},
		{P: 15, N: 5, Mapping: CyclicMapping},
		{P: 12, N: 3, Mapping: CustomMapping, Custom: []int{2, 0, 1, 1, 0, 2, 2, 1, 0, 0, 1, 2}},
		{P: 6, N: 3, Mapping: CustomMapping, Custom: []int{1, 2, 2, 0, 1, 0}},
	} {
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < spec.N; node++ {
			ranks := spec.RanksOnNode(node)
			if got := spec.Leader(node); got != ranks[0] {
				t.Fatalf("%v: Leader(%d) = %d, want %d", spec, node, got, ranks[0])
			}
			for idx, r := range ranks {
				if got := spec.LocalIndex(r); got != idx {
					t.Fatalf("%v: LocalIndex(%d) = %d, want %d", spec, r, got, idx)
				}
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{P: 0, N: 1},
		{P: 4, N: 0},
		{P: 5, N: 2},
		{P: 4, N: 2, Mapping: CustomMapping, Custom: []int{0, 0, 1}},
		{P: 4, N: 2, Mapping: CustomMapping, Custom: []int{0, 0, 0, 1}},
		{P: 4, N: 2, Mapping: CustomMapping, Custom: []int{0, 0, 5, 1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%v) unexpectedly valid", i, s)
		}
	}
	good := Spec{P: 4, N: 2, Mapping: CustomMapping, Custom: []int{1, 0, 1, 0}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRealRingAllgather(t *testing.T) {
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping}
	res, err := RunOnce(spec, SessionConfig{}, Op{Algo: ringPlain, MsgSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, 64, res.Results, true); err != nil {
		t.Fatal(err)
	}
	// Every rank: p-1 rounds, (p-1)*64 bytes each direction.
	for r, m := range res.PerRank {
		if m.CommRounds != 7 {
			t.Errorf("rank %d rounds = %d, want 7", r, m.CommRounds)
		}
		if m.BytesSent != 7*64 || m.BytesRecv != 7*64 {
			t.Errorf("rank %d bytes = %d/%d, want 448/448", r, m.BytesSent, m.BytesRecv)
		}
	}
	// Plaintext ring crosses nodes in the clear: the per-send check must
	// notice. With block mapping only ranks 3 and 7 send across, once per
	// round.
	msgs := MessageTotals(res.PerRank)
	if msgs.PlainInterMsgs != 14 || msgs.InterMsgs != 14 || msgs.IntraMsgs != 42 {
		t.Errorf("plain/inter/intra messages = %d/%d/%d, want 14/14/42", msgs.PlainInterMsgs, msgs.InterMsgs, msgs.IntraMsgs)
	}
	if len(msgs.Violations) != 14 || msgs.Violations[0] != "plaintext chunk (64 bytes) sent 3 -> 4 across nodes" {
		t.Errorf("violations = %q", msgs.Violations)
	}
}

func TestSimRingMatchesHockney(t *testing.T) {
	// With uniform alpha/bandwidth and no contention, the ring all-gather
	// must cost exactly (p-1)(alpha + m/bw).
	prof := cost.Profile{
		Name:       "uniform",
		AlphaInter: 1e-6, AlphaIntra: 1e-6,
		NICTx: 1e18, NICRx: 1e18, CoreBW: 1e9,
		MemPool: 1e18, MemFlowBW: 1e9,
		AlphaEnc: 1e-6, AlphaDec: 1e-6, EncBW: 1e9, DecBW: 1e9,
		AlphaCopy: 1e-6, CopyBW: 1e9,
	}
	const m = 1 << 20
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping}
	res, err := SimOnce(spec, prof, Op{Algo: ringPlain, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	want := 7 * (1e-6 + float64(m)/1e9)
	if math.Abs(res.Latency-want) > want*1e-9 {
		t.Fatalf("ring latency = %g, want %g", res.Latency, want)
	}
	if err := ValidateGather(spec, m, res.Results, false); err != nil {
		t.Fatal(err)
	}
	if res.Critical.Rc != 7 || res.Critical.Sc != 7*m {
		t.Fatalf("critical = %+v", res.Critical)
	}
}

func TestSimDeterministic(t *testing.T) {
	spec := Spec{P: 16, N: 4, Mapping: CyclicMapping}
	a, err := SimOnce(spec, cost.Noleland(), Op{Algo: ringPlain, MsgSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimOnce(spec, cost.Noleland(), Op{Algo: ringPlain, MsgSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Fatalf("nondeterministic sim: %g vs %g", a.Latency, b.Latency)
	}
}

func TestEncryptDecryptRealRoundTrip(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	algo := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		req := p.Isend(other, block.Message{Chunks: []block.Chunk{ct}})
		in := p.Recv(other)
		p.Wait(req)
		if !in.HasCiphertext() {
			p.Metrics() // no-op; just avoid unused warnings in odd paths
			panic("expected ciphertext")
		}
		pt := p.DecryptAll(in)
		return block.Concat(mine, pt)
	}
	res, err := auditedRunOnce(spec, SessionConfig{}, Op{Algo: algo, MsgSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, 128, res.Results, true); err != nil {
		t.Fatal(err)
	}
	msgs := MessageTotals(res.PerRank)
	if msgs.PlainInterMsgs != 0 {
		t.Fatalf("audit flagged violations: %v", msgs.Violations)
	}
	if msgs.InterMsgs != 2 || msgs.IntraMsgs != 0 {
		t.Fatalf("InterMsgs/IntraMsgs = %d/%d, want 2/0", msgs.InterMsgs, msgs.IntraMsgs)
	}
	for r, m := range res.PerRank {
		if m.EncRounds != 1 || m.EncBytes != 128 || m.DecRounds != 1 || m.DecBytes != 128 {
			t.Fatalf("rank %d crypto metrics: %+v", r, m)
		}
	}
}

func TestSimCryptoCharges(t *testing.T) {
	prof := cost.Profile{
		Name:       "crypto",
		AlphaInter: 0.5e-6, AlphaIntra: 0.5e-6,
		NICTx: 1e18, NICRx: 1e18, CoreBW: 1e9,
		MemPool: 1e18, MemFlowBW: 1e9,
		AlphaEnc: 2e-6, AlphaDec: 3e-6, EncBW: 0.5e9, DecBW: 0.25e9,
		AlphaCopy: 1e-6, CopyBW: 1e9,
	}
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	const m = 1 << 20
	algo := func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
		return block.Concat(mine, p.DecryptAll(in))
	}
	res, err := SimOnce(spec, prof, Op{Algo: algo, MsgSize: m})
	if err != nil {
		t.Fatal(err)
	}
	wire := float64(m + 28)
	want := (2e-6 + float64(m)/0.5e9) + (0.5e-6 + wire/1e9) + (3e-6 + float64(m)/0.25e9)
	if math.Abs(res.Latency-want) > want*1e-9 {
		t.Fatalf("latency = %g, want %g", res.Latency, want)
	}
}

// leaderShmGather is a two-node all-gather through shared memory and
// node barriers: a miniature HS step 1 within each node, then an
// encrypted exchange between the two leaders.
func leaderShmGather(p *Proc, mine block.Message) block.Message {
	p.ShmPut(shmKey("own", p.Rank()), mine)
	p.NodeBarrier()
	var node block.Message
	for _, r := range p.Spec().RanksOnNode(p.Node()) {
		node = block.Concat(node, p.ShmGet(shmKey("own", r)))
	}
	if p.IsLeader() {
		ct := p.Encrypt(node.Chunks...)
		otherLeader := p.Spec().Leader(1 - p.Node())
		in := p.SendRecv(otherLeader, block.Message{Chunks: []block.Chunk{ct}}, otherLeader)
		p.ShmPut(shmKey("remote", -1), p.DecryptAll(in))
	}
	p.NodeBarrier()
	remote := p.ShmGet(shmKey("remote", -1))
	return block.Concat(node, remote)
}

func TestShmAndNodeBarrier(t *testing.T) {
	spec := Spec{P: 8, N: 2, Mapping: BlockMapping}
	algo := leaderShmGather
	for _, engine := range opEngines {
		res, err := RunOnce(spec, SessionConfig{Engine: engine}, Op{Algo: algo, MsgSize: 32})
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if err := ValidateGather(spec, 32, res.Results, true); err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if MessageTotals(res.PerRank).PlainInterMsgs != 0 {
			t.Fatalf("%v: violations: %v", engine, MessageTotals(res.PerRank).Violations)
		}
	}
	// The same algorithm must run in the sim engine.
	sres, err := SimOnce(spec, cost.Noleland(), Op{Algo: algo, MsgSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateGather(spec, 32, sres.Results, false); err != nil {
		t.Fatal(err)
	}
}

func TestShmMissingKeyPanics(t *testing.T) {
	spec := Spec{P: 2, N: 1, Mapping: BlockMapping}
	_, err := RunOnce(spec, SessionConfig{}, Op{Algo: func(p *Proc, mine block.Message) block.Message {
		p.ShmGet(ShmKey{Kind: "hs/pt", Node: 1, Index: -1})
		return mine
	}, MsgSize: 8})
	if err == nil {
		t.Fatal("expected error for missing shm key")
	}
	if want := `shm key "hs/pt/1" not present`; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the key as %s", err, want)
	}
}

// Concurrent simulations leave the caller's collector setting as they
// found it: the first to start relaxes it, the last to end restores it.
func TestConcurrentSimsRestoreGCPercent(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	spec := Spec{P: 4, N: 2, Mapping: BlockMapping}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := SimOnce(spec, cost.Noleland(), Op{Algo: ringPlain, MsgSize: 64}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := debug.SetGCPercent(100); got != 100 {
		t.Fatalf("GC percent %d after concurrent simulations, want the caller's 100", got)
	}
}

func TestSimDeadlockSurfacesAsError(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	_, err := SimOnce(spec, cost.Noleland(), Op{Algo: func(p *Proc, mine block.Message) block.Message {
		if p.Rank() == 0 {
			p.Recv(1) // rank 1 never sends
		}
		return mine
	}, MsgSize: 8})
	if err == nil {
		t.Fatal("expected deadlock error from sim engine")
	}
}

func TestTamperedCiphertextCaughtEndToEnd(t *testing.T) {
	spec := Spec{P: 2, N: 2, Mapping: BlockMapping}
	_, err := RunOnce(spec, SessionConfig{}, Op{Algo: func(p *Proc, mine block.Message) block.Message {
		other := 1 - p.Rank()
		ct := p.Encrypt(mine.Chunks...)
		if p.Rank() == 0 {
			// Simulate a network adversary flipping a ciphertext bit.
			tampered := append([]byte(nil), ct.Payload...)
			tampered[len(tampered)/2] ^= 1
			ct.Payload = tampered
		}
		in := p.SendRecv(other, block.Message{Chunks: []block.Chunk{ct}}, other)
		return block.Concat(mine, p.DecryptAll(in))
	}, MsgSize: 64})
	if err == nil {
		t.Fatal("tampered ciphertext must fail authentication")
	}
}

func shmKey(kind string, rank int) ShmKey {
	return ShmKey{Kind: kind, Node: -1, Index: rank}
}

func TestCriticalPathFold(t *testing.T) {
	per := []Metrics{
		{CommRounds: 3, BytesSent: 10, BytesRecv: 40, EncRounds: 1, EncBytes: 5},
		{CommRounds: 7, BytesSent: 90, BytesRecv: 20, DecRounds: 4, DecBytes: 100},
	}
	c := CriticalPath(per)
	if c.Rc != 7 || c.Sc != 90 || c.Re != 1 || c.Se != 5 || c.Rd != 4 || c.Sd != 100 {
		t.Fatalf("critical = %+v", c)
	}
}

func TestStringers(t *testing.T) {
	if got := (Spec{P: 8, N: 2, Mapping: CyclicMapping}).String(); got != "p=8 N=2 l=4 cyclic" {
		t.Fatalf("Spec.String = %q", got)
	}
	if BlockMapping.String() != "block" || CustomMapping.String() != "custom" {
		t.Fatal("MappingKind.String wrong")
	}
	if MappingKind(99).String() == "" {
		t.Fatal("unknown mapping should still print")
	}
	c := Critical{Rc: 1, Sc: 2, Re: 3, Se: 4, Rd: 5, Sd: 6}
	if c.String() != "rc=1 sc=2 re=3 se=4 rd=5 sd=6" {
		t.Fatalf("Critical.String = %q", c.String())
	}
}

func TestLeadersAndRankOrderedCustom(t *testing.T) {
	spec := Spec{P: 6, N: 3, Mapping: CustomMapping, Custom: []int{2, 0, 1, 2, 0, 1}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	leaders := spec.Leaders()
	want := []int{1, 2, 0} // lowest rank on each node
	for i := range want {
		if leaders[i] != want[i] {
			t.Fatalf("Leaders = %v, want %v", leaders, want)
		}
	}
	l := newLayout(spec)
	if ro, wantRO := slices.Concat(l.nodes...), []int{1, 4, 2, 5, 0, 3}; !slices.Equal(ro, wantRO) {
		t.Fatalf("rank order = %v, want %v (node 0 ranks, node 1 ranks, node 2 ranks)", ro, wantRO)
	}
	if !slices.Equal(l.leaders, want) || !slices.Equal(l.columns[0], want) || !slices.Equal(l.columns[1], []int{4, 5, 3}) {
		t.Fatalf("layout leaders %v, columns %v: want %v and [%v [4 5 3]]", l.leaders, l.columns, want, want)
	}
}
