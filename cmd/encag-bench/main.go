// Command encag-bench regenerates the tables and figures of "Efficient
// Algorithms for Encrypted All-gather Operation" (IPDPS 2021) from the
// calibrated cluster model.
//
// Usage:
//
//	encag-bench                  # run every experiment
//	encag-bench -exp table3      # one experiment (fig1, table1..6, fig5..8, ablation)
//	encag-bench -exp fig7 -csv   # emit CSV instead of aligned text
//	encag-bench -exp fig5 -jsonl # emit JSONL run summaries (one object per row)
//	encag-bench -quick           # trimmed sizes for a fast smoke run
//	encag-bench -list            # list experiment IDs
//	encag-bench -overlap -iters 12 -jsonl   # nonblocking-scheduler overlap study only
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"encag/internal/bench"
)

// startCPUProfile begins CPU profiling into path and returns the stop
// function; empty path is a no-op.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeMemProfile dumps the post-GC heap profile to path; empty path is
// a no-op.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	runtime.GC() // materialize final allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	exp := flag.String("exp", "", "experiment ID to run (default: all)")
	asCSV := flag.Bool("csv", false, "emit CSV instead of text tables")
	asJSONL := flag.Bool("jsonl", false, "emit JSONL structured summaries instead of text tables")
	asPlot := flag.Bool("plot", false, "also render latency-vs-size tables as ASCII charts")
	quick := flag.Bool("quick", false, "trim large sizes for a fast run")
	outDir := flag.String("out", "", "also write each table as CSV into this directory")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	overlap := flag.Bool("overlap", false, "shortcut for -exp overlap (serialized vs multiplexed in-flight collectives)")
	iters := flag.Int("iters", 0, "iteration count for host-measuring experiments (0 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stopCPU := startCPUProfile(*cpuProfile)
	defer stopCPU()
	defer writeMemProfile(*memProfile)
	if *overlap {
		*exp = "overlap"
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	experiments := bench.All()
	if *exp != "" {
		e, err := bench.Get(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		experiments = []bench.Experiment{e}
	}

	opts := bench.Options{Quick: *quick, Iters: *iters}
	for _, e := range experiments {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *outDir != "" {
			if err := bench.WriteCSVDir(tables, *outDir); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		for _, t := range tables {
			if *asJSONL {
				if err := t.JSONL(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else if *asCSV {
				if err := t.CSV(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			} else {
				if err := t.Render(os.Stdout); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				if *asPlot && bench.Plottable(t) {
					chart, err := bench.PlotTable(t)
					if err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					fmt.Println(chart)
				}
			}
		}
		if !*asCSV && !*asJSONL {
			fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}
