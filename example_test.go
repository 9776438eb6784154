package encag_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"encag"
	"encag/internal/serve"
)

// ExampleSession_Allgather runs a real encrypted all-gather: four ranks
// on two simulated nodes exchange secrets; inter-node traffic is AES-GCM
// sealed.
func ExampleSession_Allgather() {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 4, Nodes: 2})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	data := [][]byte{
		[]byte("alpha"), []byte("bravo"), []byte("charl"), []byte("delta"),
	}
	res, err := s.Allgather(ctx, "hs2", data)
	if err != nil {
		panic(err)
	}
	fmt.Println("rank 3 sees rank 0's block:", string(res.Gathered[3][0]))
	fmt.Println("security ok:", res.SecurityOK)
	// Output:
	// rank 3 sees rank 0's block: alpha
	// security ok: true
}

// ExampleSession_Simulate prices an algorithm on the modelled Noleland
// cluster without running any bytes: here the paper's six cost metrics
// for HS2.
func ExampleSession_Simulate() {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 128, Nodes: 8},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, err := s.Simulate(ctx, "hs2", 1024)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rc=%d re=%d se=%d rd=%d sd=%d\n",
		res.Metrics.Rc, res.Metrics.Re, res.Metrics.Se, res.Metrics.Rd, res.Metrics.Sd)
	// Output:
	// rc=3 re=1 se=1024 rd=7 sd=7168
}

// ExampleLowerBounds evaluates the paper's Table I for the Noleland
// configuration.
func ExampleLowerBounds() {
	lb := encag.LowerBounds(128, 8, 1024)
	fmt.Printf("re>=%d se>=%d rd>=%d sd>=%d\n", lb.Re, lb.Se, lb.Rd, lb.Sd)
	// Output:
	// re>=1 se>=1024 rd>=1 sd>=7168
}

// ExamplePredict shows that HS2 meets the decrypted-bytes lower bound
// exactly.
func ExamplePredict() {
	pred, err := encag.Predict("hs2", 128, 8, 1024)
	if err != nil {
		panic(err)
	}
	lb := encag.LowerBounds(128, 8, 1024)
	fmt.Println("hs2 sd == bound:", pred.Sd == lb.Sd)
	// Output:
	// hs2 sd == bound: true
}

// Example_quickstart runs one encrypted all-gather for real. Eight ranks
// on two nodes each contribute a secret, and HS2 gathers all eight at
// every rank. Inter-node traffic is AES-GCM sealed, intra-node traffic
// stays in the clear, and the per-send check proves it. The naive
// baseline gathers the same bytes but decrypts l times more of them.
func Example_quickstart() {
	ctx := context.Background()
	spec := encag.Spec{Procs: 8, Nodes: 2, Mapping: "block"}
	data := make([][]byte, spec.Procs)
	for r := range data {
		data[r] = []byte(fmt.Sprintf("secret-of-rank-%d", r))
	}
	// A session is the runtime every collective runs on: open it once,
	// run as many operations as you like, close it.
	s, err := encag.OpenSession(ctx, spec)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, err := s.Allgather(ctx, encag.AlgHS2, data)
	if err != nil {
		panic(err)
	}
	for origin, b := range res.Gathered[0] {
		fmt.Printf("rank %d contributed: %s\n", origin, b)
	}
	fmt.Printf("security ok: %v (%d inter-node messages sealed, %d intra-node in the clear)\n",
		res.SecurityOK, res.InterMessages, res.IntraMessages)
	naive, err := s.Allgather(ctx, encag.AlgNaive, data)
	if err != nil {
		panic(err)
	}
	fmt.Printf("decrypted bytes per rank: hs2=%d naive=%d\n", res.Metrics.Sd, naive.Metrics.Sd)
	// Output:
	// rank 0 contributed: secret-of-rank-0
	// rank 1 contributed: secret-of-rank-1
	// rank 2 contributed: secret-of-rank-2
	// rank 3 contributed: secret-of-rank-3
	// rank 4 contributed: secret-of-rank-4
	// rank 5 contributed: secret-of-rank-5
	// rank 6 contributed: secret-of-rank-6
	// rank 7 contributed: secret-of-rank-7
	// security ok: true (2 inter-node messages sealed, 0 intra-node in the clear)
	// decrypted bytes per rank: hs2=16 naive=112
}

// Example_wireproof watches the security property on real sockets. The
// same all-gather runs twice over loopback TCP, once with cryptography
// disabled and once encrypted (HS2), while a sniffer captures every byte
// that crosses a node boundary: what an eavesdropper between the nodes
// would record. The plaintext run exposes the blocks; the encrypted run
// exposes nothing.
func Example_wireproof() {
	ctx := context.Background()
	spec := encag.Spec{Procs: 8, Nodes: 4}
	const m = 256
	for _, alg := range []encag.Alg{encag.PlainOf(encag.AlgHS2), encag.AlgHS2} {
		// One session per run: the capture is cumulative over a session,
		// and the two runs must not share an eavesdropper.
		s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineTCP))
		if err != nil {
			panic(err)
		}
		res, err := s.Run(ctx, alg, m)
		if err != nil {
			panic(err)
		}
		verdict := "exposed to the eavesdropper"
		if s.WireClean(m) {
			verdict = "invisible to the eavesdropper"
		}
		fmt.Printf("%-8s wire traffic: %v, plaintext blocks %s, audit ok: %v\n",
			alg, s.Wire().Bytes > 0, verdict, res.SecurityOK)
		s.Close()
	}
	// Output:
	// plain-hs2 wire traffic: true, plaintext blocks exposed to the eavesdropper, audit ok: false
	// hs2      wire traffic: true, plaintext blocks invisible to the eavesdropper, audit ok: true
}

// Example_session opens one persistent TCP session and runs a mixed
// workload over it: several HS2 steps, a key rotation, a step under a
// transient fault plan (scoped to that step alone and absorbed by the
// transport), and an encrypted all-reduce. A context deadline bounds
// every step.
func Example_session() {
	spec := encag.Spec{Procs: 8, Nodes: 2, Mapping: "block"}
	s, err := encag.OpenSession(context.Background(), spec, encag.WithEngine(encag.EngineTCP))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	// The sockets are dialed once; each collective pays only for its own
	// bytes and crypto.
	for step := 0; step < 3; step++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := s.Run(ctx, encag.AlgHS2, 4096)
		cancel()
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d: %d blocks per rank, security ok: %v\n", step, len(res.Gathered[0]), res.SecurityOK)
	}
	// Later steps seal under a fresh key over the same connections.
	if err := s.Rekey(); err != nil {
		panic(err)
	}
	res, err := s.Run(context.Background(), encag.AlgHS2, 4096,
		encag.WithFaultPlan(encag.TransientFaultPlan(42, spec.Procs, 4)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("rekeyed step under a transient fault plan: recovered, security ok: %v\n", res.SecurityOK)
	vecs := make([][]byte, spec.Procs)
	for r := range vecs {
		vecs[r] = make([]byte, 16)
		for i := range vecs[r] {
			vecs[r][i] = byte(r + i)
		}
	}
	red, err := s.Allreduce(context.Background(), vecs, encag.XORCombine)
	if err != nil {
		panic(err)
	}
	fmt.Printf("allreduce: %x\n", red.Result)
	// The capture is cumulative over every collective above.
	fmt.Printf("plaintext visible to the eavesdropper: %v\n", !s.WireClean(4096))
	// Output:
	// step 0: 8 blocks per rank, security ok: true
	// step 1: 8 blocks per rank, security ok: true
	// step 2: 8 blocks per rank, security ok: true
	// rekeyed step under a transient fault plan: recovered, security ok: true
	// allreduce: 00080008000800080018001800180018
	// plaintext visible to the eavesdropper: false
}

// Example_overlap hides all-gather latency behind local compute,
// MPI_Iallgather style. Start returns a handle at once, Done selects
// cleanly, Wait returns exactly what the blocking Run would have, and a
// burst of small all-gathers shares the session's in-flight window.
func Example_overlap() {
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 8, Nodes: 2},
		encag.WithEngine(encag.EngineTCP), encag.WithMaxInFlight(4))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	// busy stands in for a compute kernel.
	scratch := make([]byte, 1<<12)
	busy := func() {
		for i := range scratch {
			scratch[i] += byte(i)
		}
	}

	// One collective overlapped with local compute.
	h, err := s.Start(ctx, encag.AlgHS2, 64<<10)
	if err != nil {
		panic(err)
	}
	busy()
	res, err := h.Wait()
	if err != nil {
		panic(err)
	}
	fmt.Printf("overlapped step: %d blocks per rank, security ok: %v\n", len(res.Gathered[0]), res.SecurityOK)

	// Poll with Done instead of blocking.
	h, err = s.Start(ctx, encag.AlgCRing, 1<<10)
	if err != nil {
		panic(err)
	}
	for done := false; !done; {
		select {
		case <-h.Done():
			done = true
		default:
			busy()
		}
	}
	if res, err = h.Wait(); err != nil {
		panic(err)
	}
	fmt.Printf("polled step: %d blocks per rank\n", len(res.Gathered[0]))

	// A burst of small collectives through the in-flight window.
	handles := make([]*encag.Handle, 12)
	for i := range handles {
		if handles[i], err = s.Start(ctx, encag.AlgCRing, 1<<10); err != nil {
			panic(err)
		}
	}
	if err := s.WaitAll(ctx); err != nil {
		panic(err)
	}
	ok := 0
	for _, h := range handles {
		if h.Err() == nil {
			ok++
		}
	}
	fmt.Printf("burst: %d of %d all-gathers completed\n", ok, len(handles))
	// Output:
	// overlapped step: 8 blocks per rank, security ok: true
	// polled step: 8 blocks per rank
	// burst: 12 of 12 all-gathers completed
}

// Example_clusterStudy repeats the paper's evaluation on a machine of
// your own. A custom profile models a 25 Gb/s Ethernet cloud cluster
// whose crypto is nearly as slow as its network; sweeping message sizes
// on the simulator shows which encrypted all-gather wins where — the
// methodology of the paper's Tables III-VI. Edit the profile to model
// another cluster: the winners shift with the encryption to network
// speed ratio.
func Example_clusterStudy() {
	cloud := encag.Profile{
		Name:         "cloud-25g",
		AlphaInter:   12e-6, // Ethernet and virtualisation latency
		AlphaIntra:   0.6e-6,
		NICTx:        3.1e9, // 25 Gb/s
		NICRx:        3.1e9,
		CoreBW:       2.8e9,
		MemPool:      24e9,
		MemFlowBW:    4e9,
		AlphaEnc:     0.3e-6,
		AlphaDec:     0.3e-6,
		EncBW:        3.5e9,
		DecBW:        1.6e9,
		AlphaCopy:    0.2e-6,
		CopyBW:       3e9,
		AlphaBarrier: 0.5e-6,
	}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: 32, Nodes: 4},
		encag.WithEngine(encag.EngineSim), encag.WithProfile(cloud))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for _, m := range []int64{64, 16 << 10, 1 << 20} {
		var best encag.Alg
		var bestLat time.Duration
		for _, a := range encag.PaperAlgorithms() {
			res, err := s.Simulate(ctx, a, m)
			if err != nil {
				panic(err)
			}
			if best == "" || res.Latency < bestLat {
				best, bestLat = a, res.Latency
			}
		}
		fmt.Printf("%d B: %s wins\n", m, best)
	}
	// Output:
	// 64 B: c-rd wins
	// 16384 B: c-rd wins
	// 1048576 B: c-rd wins
}

// Example_gradient is the paper's motivating workload: workers on shared
// cloud nodes aggregate private gradient shards over an untrusted
// network. Every worker needs every shard to form the global average.
// Each algorithm gathers the same shards, every worker arrives at the
// same average, and the algorithms differ only in the cryptographic work
// they do: the concurrent and hierarchical schemes open (N-1)·m bytes
// per worker where naive opens (p-1)·m.
func Example_gradient() {
	const workers, dim = 32, 256
	shards := make([][]float64, workers)
	payloads := make([][]byte, workers)
	want := make([]float64, dim)
	for w := range shards {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		shards[w] = make([]float64, dim)
		payloads[w] = make([]byte, 8*dim)
		for i := range shards[w] {
			shards[w][i] = rng.NormFloat64()
			binary.LittleEndian.PutUint64(payloads[w][8*i:], math.Float64bits(shards[w][i]))
			want[i] += shards[w][i] / workers
		}
	}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, encag.Spec{Procs: workers, Nodes: 4})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	for _, alg := range []encag.Alg{encag.AlgNaive, encag.AlgORD, encag.AlgCRing, encag.AlgHS1, encag.AlgHS2, encag.AlgAuto} {
		res, err := s.Allgather(ctx, alg, payloads)
		if err != nil {
			panic(err)
		}
		agree := 0
		for w := 0; w < workers; w++ {
			ok := true
			for i := 0; i < dim; i++ {
				var avg float64
				for origin := 0; origin < workers; origin++ {
					avg += math.Float64frombits(binary.LittleEndian.Uint64(res.Gathered[w][origin][8*i:])) / workers
				}
				ok = ok && math.Abs(avg-want[i]) < 1e-12
			}
			if ok {
				agree++
			}
		}
		fmt.Printf("%-6s ran %-6s %d/%d workers agree, security ok: %v, opened %5d B in %2d call(s)\n",
			alg, res.Algorithm, agree, workers, res.SecurityOK, res.Metrics.Sd, res.Metrics.Rd)
	}
	// Output:
	// naive  ran naive  32/32 workers agree, security ok: true, opened 63488 B in 31 call(s)
	// o-rd   ran o-rd   32/32 workers agree, security ok: true, opened 49152 B in  3 call(s)
	// c-ring ran c-ring 32/32 workers agree, security ok: true, opened  6144 B in  3 call(s)
	// hs1    ran hs1    32/32 workers agree, security ok: true, opened 16384 B in  1 call(s)
	// hs2    ran hs2    32/32 workers agree, security ok: true, opened  6144 B in  3 call(s)
	// auto   ran c-rd   32/32 workers agree, security ok: true, opened  6144 B in  3 call(s)
}

// Example_secureAggregation is the encrypted all-reduce, for one
// consortium and for a host serving several. Sixteen parties on four
// nodes each hold a private tally vector and all need the element-wise
// total; no party's vector may cross a node boundary in the clear. Then
// three independent consortia run the same aggregation concurrently in
// one process through a serve.Manager, each with its own session and
// key, sharing one crypto worker pool.
func Example_secureAggregation() {
	const parties, categories = 16, 8
	addU32 := func(dst, src []byte) {
		for i := 0; i+4 <= len(dst); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(dst[i:])+binary.LittleEndian.Uint32(src[i:]))
		}
	}
	// tallies gives each tenant distinct data, so leakage across tenants
	// would show in the totals.
	tallies := func(offset int) (data [][]byte, want []uint32) {
		data, want = make([][]byte, parties), make([]uint32, categories)
		for r := range data {
			data[r] = make([]byte, 4*categories)
			for c := range want {
				v := uint32((offset + r*7 + c*13) % 50)
				binary.LittleEndian.PutUint32(data[r][4*c:], v)
				want[c] += v
			}
		}
		return data, want
	}
	exact := func(res *encag.ReduceResult, want []uint32) bool {
		for c, w := range want {
			if binary.LittleEndian.Uint32(res.Result[4*c:]) != w {
				return false
			}
		}
		return res.SecurityOK
	}

	spec := encag.Spec{Procs: parties, Nodes: 4}
	data, want := tallies(0)
	s, err := encag.OpenSession(context.Background(), spec)
	if err != nil {
		panic(err)
	}
	res, err := s.Allreduce(context.Background(), data, addU32)
	s.Close()
	if err != nil {
		panic(err)
	}
	fmt.Print("totals:")
	for c := 0; c < categories; c++ {
		fmt.Printf(" %d", binary.LittleEndian.Uint32(res.Result[4*c:]))
	}
	fmt.Printf("\nexact and sealed: %v; per party sealed %d B, opened %d B in %d call(s)\n",
		exact(res, want), res.Metrics.Se, res.Metrics.Sd, res.Metrics.Rd)

	m, err := serve.Open(serve.Config{Spec: spec})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for i, id := range []string{"north", "south", "coastal"} {
		i, id := i, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			tdata, twant := tallies(100 * (i + 1))
			for round := 0; round < 3; round++ {
				tres, err := m.Allreduce(context.Background(), id, tdata, addU32)
				if err != nil || !exact(tres, twant) {
					panic(fmt.Sprintf("tenant %s: %v", id, err))
				}
			}
		}()
	}
	wg.Wait()
	for _, ts := range m.Snapshot().Tenants {
		fmt.Printf("tenant %-7s steps=%d failures=%d sessions=%d\n", ts.ID, ts.Steps, ts.Failures, ts.SessionsOpened)
	}
	// Output:
	// totals: 390 398 406 414 322 380 438 446
	// exact and sealed: true; per party sealed 8 B, opened 16 B in 2 call(s)
	// tenant coastal steps=3 failures=0 sessions=1
	// tenant north   steps=3 failures=0 sessions=1
	// tenant south   steps=3 failures=0 sessions=1
}
