package main

import (
	"fmt"
	"os"
	"time"

	"encag/internal/bench"
)

// cmdBench regenerates the tables and figures of "Efficient Algorithms
// for Encrypted All-gather Operation" (IPDPS 2021) from the calibrated
// cluster model.
//
//	encag bench                  # run every experiment
//	encag bench -exp table3      # one experiment (fig1, table1..6, fig5..8, ablation)
//	encag bench -exp fig7 -csv   # emit CSV instead of aligned text
//	encag bench -exp fig5 -jsonl # emit JSONL run summaries (one object per row)
//	encag bench -quick           # trimmed sizes for a fast smoke run
//	encag bench -list            # list experiment IDs
//	encag bench -exp overlap -iters 12 -jsonl   # nonblocking-scheduler overlap study only
func cmdBench(args []string) error {
	fs := newFlags("bench")
	exp := fs.String("exp", "", "experiment ID to run (default: all)")
	asCSV := fs.Bool("csv", false, "emit CSV instead of text tables")
	asJSONL := fs.Bool("jsonl", false, "emit JSONL structured summaries instead of text tables")
	asPlot := fs.Bool("plot", false, "also render latency-vs-size tables as ASCII charts")
	quick := fs.Bool("quick", false, "trim large sizes for a fast run")
	outDir := fs.String("out", "", "also write each table as CSV into this directory")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	iters := fs.Int("iters", 0, "iteration count for host-measuring experiments (0 = default)")
	var prof profiler
	prof.register(fs)
	fs.Parse(args)
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer stop()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return nil
	}

	experiments := bench.All()
	if *exp != "" {
		e, err := bench.Get(*exp)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	opts := bench.Options{Quick: *quick, Iters: *iters}
	for _, e := range experiments {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if *outDir != "" {
			if err := bench.WriteCSVDir(tables, *outDir); err != nil {
				return err
			}
		}
		for _, t := range tables {
			switch {
			case *asJSONL:
				err = t.JSONL(os.Stdout)
			case *asCSV:
				err = t.CSV(os.Stdout)
			default:
				if err = t.Render(os.Stdout); err == nil && *asPlot && bench.Plottable(t) {
					var chart string
					if chart, err = bench.PlotTable(t); err == nil {
						fmt.Println(chart)
					}
				}
			}
			if err != nil {
				return err
			}
		}
		if !*asCSV && !*asJSONL {
			fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
