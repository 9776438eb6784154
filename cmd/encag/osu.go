package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"time"

	"encag"
	"encag/internal/bench"
)

// cmdOSU is the analogue of the OSU_Allgather micro-benchmark the paper
// measures with: it times a real engine (in-memory channels, or loopback
// TCP with -engine tcp; real AES-GCM on both) over a range of message
// sizes, one bench.TimeCell per (algorithm, size), and reports the wall
// clock per all-gather plus rd and sd. It measures this host, not an
// InfiniBand fabric (`encag bench` has the calibrated model); its value
// is the relative cost of the algorithms on real silicon.
//
//	encag osu -p 32 -nodes 4 -algs naive,hs2 -sizes 1KB,64KB -iters 20
//	encag osu -engine tcp -window 4   # nonblocking: pipelined Start
//	encag osu -algs mpi,o-rd2,hs2     # overheads against unencrypted MPI
//
// Everything runs on one encag.Session (for tcp the mesh is dialed once,
// before anything is timed). Plaintext baselines (mpi, plain-*) are
// timed like any other row. With mpi in -algs its rows are timed first,
// and every other row gets its overhead over mpi from per-op medians:
// one slow outlier moves a mean, not a median.
func cmdOSU(args []string) error {
	fs := newFlags("osu")
	shape := specFlags{p: "32", nodes: "4"}
	shape.register(fs, "p", "nodes", "mapping", "crypto-workers", "segment-size")
	algsStr := fs.String("algs", "naive,o-rd,c-ring,hs1,hs2", "comma-separated algorithms")
	sizesStr := fs.String("sizes", "1KB,16KB,256KB", "comma-separated sizes")
	iters := fs.Int("iters", 10, "iterations per configuration")
	warmup := fs.Int("warmup", 2, "warm-up iterations (not timed)")
	asCSV := fs.Bool("csv", false, "emit CSV")
	window := fs.Int("window", 1, "pipeline iterations through Session.Start with this in-flight window")
	engineStr := fs.String("engine", "chan", "execution engine: chan or tcp")
	var prof profiler
	prof.register(fs)
	fs.Parse(args)
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer stop()

	spec, err := shape.spec()
	if err != nil {
		return err
	}
	sizes, err := parseList(*sizesStr, bench.ParseSize)
	if err != nil {
		return err
	}
	algs, err := parseList(*algsStr, encag.ParseAlg)
	if err != nil {
		return err
	}
	engine, err := realEngine(*engineStr)
	if err != nil {
		return err
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: want at least 1", *iters)
	}
	pool, closePool := shape.cryptoPool()
	defer closePool()
	ctx := context.Background()
	sess, err := encag.OpenSession(ctx, spec, encag.WithEngine(engine), encag.WithMaxInFlight(*window),
		encag.WithCryptoPool(pool))
	if err != nil {
		return err
	}
	defer sess.Close()

	if i := slices.Index(algs, encag.AlgMPI); i > 0 {
		algs = append([]encag.Alg{encag.AlgMPI}, slices.Delete(algs, i, i+1)...)
	}
	withMPI := len(algs) > 0 && algs[0] == encag.AlgMPI
	t := bench.Table{
		ID: "osu",
		Title: fmt.Sprintf("p=%d nodes=%d mapping=%s iters=%d window=%d engine=%s (wall clock, real AES-GCM)",
			spec.Procs, spec.Nodes, spec.Mapping, *iters, *window, engine),
		Headers: []string{"alg", "size", "avg_us", "min_us", "max_us", "stddev_us", "rd", "sd"},
		Notes:   []string{"avg_us is the mean per-op latency; with -window > 1, batch wall clock per op (min/max/stddev stay per op)"},
	}
	if withMPI {
		t.Headers = append(t.Headers, "overhead")
		t.Notes = append(t.Notes, "overhead: percent over the mpi row at the same size, from per-op medians")
	}
	us := func(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1e6) }
	mpiMedian := map[int64]time.Duration{}
	plaintext := 0
	for _, alg := range algs {
		for _, m := range sizes {
			tm, err := bench.TimeCell(ctx, sess, alg, m, *warmup, *iters, *window)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
				continue
			}
			plaintext += tm.Violations
			avg := tm.Mean()
			if *window > 1 {
				avg = tm.Wall / time.Duration(len(tm.Samples))
			}
			row := []string{string(alg), bench.SizeName(m), us(avg), us(tm.Min()), us(tm.Max()),
				us(tm.Stddev()), fmt.Sprint(tm.Metrics.Rd), fmt.Sprint(tm.Metrics.Sd)}
			if alg == encag.AlgMPI {
				mpiMedian[m] = tm.Median()
			} else if base, ok := mpiMedian[m]; ok {
				row = append(row, fmt.Sprintf("%.1f", 100*float64(tm.Median()-base)/float64(base)))
			}
			if withMPI && len(row) < len(t.Headers) {
				row = append(row, "-")
			}
			t.Rows = append(t.Rows, row)
		}
	}
	if plaintext > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("plaintext baselines send in the clear between nodes by design: %d such sends counted (at most 32 per op), not failed", plaintext))
	}
	if *asCSV {
		return t.CSV(os.Stdout)
	}
	return t.Render(os.Stdout)
}
