package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"encag"
	"encag/internal/bench"
)

// osuStats are the timed iterations of one (algorithm, size) cell.
type osuStats struct {
	total, min, max time.Duration
	samples         []float64 // per-op elapsed, µs
	metrics         encag.Metrics
}

func (st *osuStats) add(res *encag.RunResult) error {
	if !res.SecurityOK {
		return errors.New("security violation")
	}
	d := res.Elapsed
	st.total += d
	st.samples = append(st.samples, d.Seconds()*1e6)
	if st.min == 0 || d < st.min {
		st.min = d
	}
	if d > st.max {
		st.max = d
	}
	st.metrics = res.Metrics
	return nil
}

// stddev returns the sample standard deviation in the samples' unit.
func (st *osuStats) stddev() float64 {
	if len(st.samples) < 2 {
		return 0
	}
	var mean float64
	for _, v := range st.samples {
		mean += v
	}
	mean /= float64(len(st.samples))
	var ss float64
	for _, v := range st.samples {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(st.samples)-1))
}

// osuCell warms up serially, then times iters collectives: one at a
// time, or with window > 1 pipelined through Start. Per-op elapsed times
// overlap there, so total is the batch wall clock — the OSU-style
// pipelined throughput figure. The first failure ends the cell.
func osuCell(ctx context.Context, sess *encag.Session, alg encag.Alg, m int64, warmup, iters, window int) (osuStats, error) {
	var st osuStats
	for i := 0; i < warmup; i++ {
		if _, err := sess.Run(ctx, alg, m); err != nil {
			return st, err
		}
	}
	if window <= 1 {
		for i := 0; i < iters; i++ {
			res, err := sess.Run(ctx, alg, m)
			if err == nil {
				err = st.add(res)
			}
			if err != nil {
				return st, err
			}
		}
		return st, nil
	}
	batch := time.Now()
	var handles []*encag.Handle
	var first error
	for i := 0; i < iters; i++ {
		h, err := sess.Start(ctx, alg, m)
		if err != nil {
			first = err
			break
		}
		handles = append(handles, h)
	}
	for _, h := range handles {
		res, err := h.Wait()
		if err == nil {
			err = st.add(res)
		}
		if first == nil {
			first = err
		}
	}
	st.total = time.Since(batch)
	return st, first
}

// cmdOSU is the analogue of the OSU_Allgather micro-benchmark the paper
// measures with: it runs a real execution engine (in-memory channels by
// default, loopback TCP with -engine tcp; real AES-GCM on both)
// repeatedly for a range of message sizes and reports average / min /
// max wall-clock latency per all-gather, plus the six cost metrics.
//
// Wall times here measure this host's goroutine scheduler and AES-NI
// throughput, not an InfiniBand fabric — use `encag bench` for the
// calibrated cluster model. The value of this tool is comparing the
// *relative* cryptographic cost of the algorithms on real silicon.
//
//	encag osu -p 32 -nodes 4 -algs naive,hs2 -sizes 1KB,64KB -iters 20
//	encag osu -engine tcp -iters 50   # over loopback TCP
//	encag osu -engine tcp -window 4   # nonblocking: pipelined Start
//
// All iterations of all configurations run over one encag.Session (for
// tcp the mesh is dialed once, before anything is timed). With
// -window n (>1), the timed iterations are issued through the
// nonblocking Session.Start under an in-flight window of n: the avg
// column then reports batch wall clock per collective (pipelined
// throughput), while min/max/stddev remain per-operation and overlap.
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
	pool, closePool := shape.cryptoPool()
	defer closePool()
	ctx := context.Background()
	sess, err := encag.OpenSession(ctx, spec, encag.WithEngine(engine), encag.WithMaxInFlight(*window),
		encag.WithCryptoPool(pool))
	if err != nil {
		return err
	}
	defer sess.Close()

	if *asCSV {
		fmt.Println("alg,size,avg_us,min_us,max_us,stddev_us,rd,sd")
	} else {
		fmt.Printf("# encag-osu  p=%d nodes=%d mapping=%s iters=%d engine=%s (wall clock, real AES-GCM)\n",
			spec.Procs, spec.Nodes, spec.Mapping, *iters, engine)
		fmt.Printf("%-8s %-8s %12s %12s %12s %12s %8s %12s\n",
			"alg", "size", "avg", "min", "max", "stddev", "rd", "sd")
	}
	for _, alg := range algs {
		for _, m := range sizes {
			st, err := osuCell(ctx, sess, alg, m, *warmup, *iters, *window)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
				continue
			}
			avg := st.total / time.Duration(*iters)
			if *asCSV {
				fmt.Printf("%s,%s,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
					alg, bench.SizeName(m), avg.Seconds()*1e6, st.min.Seconds()*1e6,
					st.max.Seconds()*1e6, st.stddev(), st.metrics.Rd, st.metrics.Sd)
			} else {
				fmt.Printf("%-8s %-8s %12v %12v %12v %11.1fu %8d %12d\n",
					alg, bench.SizeName(m),
					avg.Round(time.Microsecond), st.min.Round(time.Microsecond), st.max.Round(time.Microsecond),
					st.stddev(), st.metrics.Rd, st.metrics.Sd)
			}
		}
	}
	return nil
}
