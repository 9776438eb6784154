// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the building blocks.
//
// Each BenchmarkTableN / BenchmarkFigureN runs the corresponding
// experiment from internal/bench once per iteration and reports the
// modelled latency columns via the experiment's own output; run the
// encag bench command for the rendered tables. Table VI (p=1024) runs in
// quick mode here — its full form takes minutes and lives behind
// `encag bench -exp table6`.
package encag_test

import (
	"context"
	"testing"

	"encag"
	"encag/internal/bench"
)

func runExperiment(b *testing.B, id string, quick bool) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(bench.Options{Quick: quick})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no data")
		}
	}
}

// BenchmarkFigure1 regenerates the encryption vs ping-pong throughput
// comparison (motivation figure).
func BenchmarkFigure1(b *testing.B) { runExperiment(b, "fig1", false) }

// BenchmarkTableI evaluates the lower bounds of Table I.
func BenchmarkTableI(b *testing.B) { runExperiment(b, "table1", false) }

// BenchmarkTableII verifies the Table II closed forms against
// instrumented simulation runs (p=128, N=8).
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2", false) }

// BenchmarkTableIII regenerates Table III: Noleland, p=128, N=8, block
// mapping, 1B..2MB.
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3", false) }

// BenchmarkTableIV regenerates Table IV: Noleland, p=128, N=8, cyclic.
func BenchmarkTableIV(b *testing.B) { runExperiment(b, "table4", false) }

// BenchmarkTableV regenerates Table V: Noleland, p=91, N=7
// (non-power-of-two), block mapping.
func BenchmarkTableV(b *testing.B) { runExperiment(b, "table5", false) }

// BenchmarkTableVI regenerates Table VI in quick mode (p=128 over 16
// nodes, sizes to 32KB); the full p=1024 sweep is `encag bench -exp
// table6`.
func BenchmarkTableVI(b *testing.B) { runExperiment(b, "table6", true) }

// BenchmarkFigure5 regenerates Figure 5 (unencrypted counterparts,
// block mapping, three panels).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5", false) }

// BenchmarkFigure6 regenerates Figure 6 (unencrypted counterparts,
// cyclic mapping).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6", false) }

// BenchmarkFigure7 regenerates Figure 7 (encrypted algorithms, block
// mapping).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7", false) }

// BenchmarkFigure8 regenerates Figure 8 (encrypted algorithms, cyclic
// mapping).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "fig8", false) }

// BenchmarkAblationNICModel, ...MergeCiphertexts, ...JointDecrypt and
// ...RankOrderedRing cover the design choices DESIGN.md calls out; they
// share one experiment that emits all four tables.
func BenchmarkAblationNICModel(b *testing.B)         { runExperiment(b, "ablation", true) }
func BenchmarkAblationMergeCiphertexts(b *testing.B) { runExperiment(b, "ablation", true) }
func BenchmarkAblationJointDecrypt(b *testing.B)     { runExperiment(b, "ablation", true) }
func BenchmarkAblationRankOrderedRing(b *testing.B)  { runExperiment(b, "ablation", true) }

// BenchmarkSimulate measures raw simulator throughput for one mid-size
// configuration per algorithm.
func BenchmarkSimulate(b *testing.B) {
	s := open(b, encag.Spec{Procs: 128, Nodes: 8}, encag.WithEngine(encag.EngineSim), encag.WithProfile(encag.Noleland()))
	for _, alg := range append([]encag.Alg{encag.AlgMPI}, encag.PaperAlgorithms()...) {
		alg := alg
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Simulate(bg, alg, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionSteadyState measures steady-state collectives on a
// persistent session — both real engines serial, and tcp pipelined (chan
// ignores pipelining) — with allocation counts (run with -benchmem):
// after warm-up, the mesh, sealer pool and segment buffers are all
// reused, so allocs/op is the per-collective footprint, not setup cost.
func BenchmarkSessionSteadyState(b *testing.B) {
	spec := encag.Spec{Procs: 4, Nodes: 2}
	const msgSize = 64 << 10
	for _, c := range []struct {
		engine encag.Engine
		mode   string
	}{
		{encag.EngineChan, "serial"},
		{encag.EngineTCP, "serial"},
		{encag.EngineTCP, "pipelined"},
	} {
		c := c
		b.Run(string(c.engine)+"/"+c.mode, func(b *testing.B) {
			opts := []encag.Option{encag.WithEngine(c.engine), encag.WithPipelining(c.mode == "pipelined")}
			s, err := encag.OpenSession(context.Background(), spec, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Run(context.Background(), "o-ring", msgSize); err != nil {
				b.Fatal(err) // warm-up: dial the mesh, fill the pools
			}
			b.SetBytes(int64(spec.Procs) * msgSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(context.Background(), "o-ring", msgSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealAllgather measures the real execution engine (goroutines
// + channels + real AES-GCM) for each algorithm.
func BenchmarkRealAllgather(b *testing.B) {
	s := open(b, encag.Spec{Procs: 32, Nodes: 4})
	for _, alg := range encag.PaperAlgorithms() {
		alg := alg
		b.Run(string(alg), func(b *testing.B) {
			b.SetBytes(32 * 4096)
			for i := 0; i < b.N; i++ {
				res, err := s.Run(bg, alg, 4096)
				if err != nil {
					b.Fatal(err)
				}
				if !res.SecurityOK {
					b.Fatal("security violation")
				}
			}
		})
	}
}
