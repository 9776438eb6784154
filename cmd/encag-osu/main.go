// Command encag-osu is the analogue of the OSU_Allgather micro-benchmark
// the paper measures with: it runs a real execution engine (in-memory
// channels by default, loopback TCP with -engine tcp; real AES-GCM on
// both) repeatedly for a range of message sizes and reports average /
// min / max wall-clock latency per all-gather, plus the six cost
// metrics.
//
// Wall times here measure this host's goroutine scheduler and AES-NI
// throughput, not an InfiniBand fabric — use encag-bench for the
// calibrated cluster model. The value of this tool is comparing the
// *relative* cryptographic cost of the algorithms on real silicon.
//
// Example:
//
//	encag-osu -p 32 -nodes 4 -algs naive,hs2 -sizes 1KB,64KB -iters 20
//	encag-osu -engine tcp -iters 50   # over loopback TCP
//	encag-osu -engine tcp -window 4   # nonblocking: pipelined Start
//
// All iterations of all configurations run over one encag.Session (for
// tcp the mesh is dialed once, before anything is timed). With
// -window n (>1), the timed iterations are issued through the
// nonblocking Session.Start under an in-flight window of n: the avg
// column then reports batch wall clock per collective (pipelined
// throughput), while min/max/stddev remain per-operation and overlap.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"encag"
	"encag/internal/bench"
)

// stddev returns the sample standard deviation in the samples' unit.
func stddev(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	var mean float64
	for _, v := range samples {
		mean += v
	}
	mean /= float64(len(samples))
	var ss float64
	for _, v := range samples {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(len(samples)-1))
}

func main() {
	p := flag.Int("p", 32, "number of processes")
	nodes := flag.Int("nodes", 4, "number of nodes")
	mapping := flag.String("mapping", "block", "block or cyclic")
	algsStr := flag.String("algs", "naive,o-rd,c-ring,hs1,hs2", "comma-separated algorithms")
	sizesStr := flag.String("sizes", "1KB,16KB,256KB", "comma-separated sizes")
	iters := flag.Int("iters", 10, "iterations per configuration")
	warmup := flag.Int("warmup", 2, "warm-up iterations (not timed)")
	asCSV := flag.Bool("csv", false, "emit CSV")
	cryptoWorkers := flag.Int("crypto-workers", 0, "AES-GCM worker pool size (0 = shared GOMAXPROCS pool)")
	segmentStr := flag.String("segment-size", "", "AES-GCM segmentation split size, e.g. 64KB (empty = default)")
	window := flag.Int("window", 1, "pipeline iterations through Session.Start with this in-flight window")
	engineStr := flag.String("engine", "chan", "execution engine: chan or tcp")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	var segSize int64
	if *segmentStr != "" {
		v, err := bench.ParseSize(*segmentStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		segSize = v
	}
	spec := encag.Spec{Procs: *p, Nodes: *nodes, Mapping: *mapping,
		CryptoWorkers: *cryptoWorkers, SegmentSize: segSize}
	var sizes []int64
	for _, s := range strings.Split(*sizesStr, ",") {
		v, err := bench.ParseSize(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}
	var algs []encag.Alg
	for _, name := range strings.Split(*algsStr, ",") {
		alg, err := encag.ParseAlg(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		algs = append(algs, alg)
	}

	engine := encag.Engine(*engineStr)
	if engine != encag.EngineChan && engine != encag.EngineTCP {
		fmt.Fprintf(os.Stderr, "unknown -engine %q (want chan or tcp)\n", *engineStr)
		os.Exit(2)
	}
	ctx := context.Background()
	sess, err := encag.OpenSession(ctx, spec, encag.WithEngine(engine), encag.WithMaxInFlight(*window))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer sess.Close()

	if *asCSV {
		fmt.Println("alg,size,avg_us,min_us,max_us,stddev_us,rd,sd")
	} else {
		fmt.Printf("# encag-osu  p=%d nodes=%d mapping=%s iters=%d engine=%s (wall clock, real AES-GCM)\n",
			*p, *nodes, *mapping, *iters, engine)
		fmt.Printf("%-8s %-8s %12s %12s %12s %12s %8s %12s\n",
			"alg", "size", "avg", "min", "max", "stddev", "rd", "sd")
	}
	for _, alg := range algs {
		for _, m := range sizes {
			var total, minD, maxD time.Duration
			var samples []float64
			var metrics encag.Metrics
			ok := true
			// collect folds one timed result into the running stats.
			collect := func(res *encag.RunResult) bool {
				if !res.SecurityOK {
					fmt.Fprintf(os.Stderr, "%s @%s: security violation\n", alg, bench.SizeName(m))
					return false
				}
				d := res.Elapsed
				total += d
				samples = append(samples, d.Seconds()*1e6)
				if minD == 0 || d < minD {
					minD = d
				}
				if d > maxD {
					maxD = d
				}
				metrics = res.Metrics
				return true
			}
			if *window > 1 {
				// Nonblocking mode: warm up serially, then pipeline the
				// timed iterations through Start. Per-op elapsed times
				// overlap, so the avg column reports batch wall clock per
				// collective — the OSU-style pipelined throughput figure.
				for i := 0; i < *warmup; i++ {
					if _, err := sess.Run(ctx, alg, m); err != nil {
						fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
						ok = false
						break
					}
				}
				batch := time.Now()
				var handles []*encag.Handle
				for i := 0; ok && i < *iters; i++ {
					h, err := sess.Start(ctx, alg, m)
					if err != nil {
						fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
						ok = false
						break
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					res, err := h.Wait()
					if err != nil {
						fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
						ok = false
						continue
					}
					if !collect(res) {
						ok = false
					}
				}
				total = time.Since(batch)
			} else {
				for i := 0; i < *warmup+*iters; i++ {
					res, err := sess.Run(ctx, alg, m)
					if err != nil {
						fmt.Fprintf(os.Stderr, "%s @%s: %v\n", alg, bench.SizeName(m), err)
						ok = false
						break
					}
					if i < *warmup {
						continue
					}
					if !collect(res) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			avg := total / time.Duration(*iters)
			sd := stddev(samples)
			if *asCSV {
				fmt.Printf("%s,%s,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
					alg, bench.SizeName(m), avg.Seconds()*1e6, minD.Seconds()*1e6,
					maxD.Seconds()*1e6, sd, metrics.Rd, metrics.Sd)
			} else {
				fmt.Printf("%-8s %-8s %12v %12v %12v %11.1fu %8d %12d\n",
					alg, bench.SizeName(m),
					avg.Round(time.Microsecond), minD.Round(time.Microsecond), maxD.Round(time.Microsecond),
					sd, metrics.Rd, metrics.Sd)
			}
		}
	}
}
