package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"encag"
	"encag/internal/bench"
	"encag/internal/tune"
)

// cmdTune measures the algorithm crossovers on this host and emits the
// tuning table that drives alg=auto.
//
// Sweep mode (the default) runs every candidate algorithm over a grid of
// engines × cluster shapes × message sizes on real sessions, best-of-k,
// and writes the versioned JSON table plus a human-readable crossover
// report per configuration:
//
//	encag tune -o tune.json                          # full default grid
//	encag tune -quick -o tune.json                   # reduced smoke grid
//	encag tune -engines tcp -p 8 -nodes 2 \
//	    -sizes 1KB,16KB,256KB -k 5 -o tune.json
//
// Lookup mode answers "what would alg=auto pick here?" from an existing
// table — one algorithm name on stdout, for scripting:
//
//	encag tune -lookup -table tune.json -engines tcp -p 4 -nodes 2 -size 64KB
func cmdTune(args []string) error {
	fs := newFlags("tune")
	lookup := fs.Bool("lookup", false, "lookup mode: print the alg=auto pick for one configuration and exit")
	tablePath := fs.String("table", "", "existing tuning table to consult (lookup mode)")
	out := fs.String("o", "tune.json", "output path for the tuning table (sweep mode)")
	enginesStr := fs.String("engines", "chan,tcp", "comma-separated engines to sweep (chan, tcp)")
	shape := specFlags{p: "4,8", nodes: "2,2"}
	shape.register(fs, "p", "nodes")
	sizesStr := fs.String("sizes", "256B,1KB,4KB,16KB,64KB,256KB", "comma-separated message sizes")
	algsStr := fs.String("algs", "", "comma-separated candidate algorithms (default: the paper's eight)")
	k := fs.Int("k", 3, "best-of-k runs per (cell, algorithm)")
	pipeline := fs.String("pipeline", "off", "pipelining modes to sweep: off, on or both")
	quick := fs.Bool("quick", false, "reduced grid for a fast smoke run (chan+tcp, p=4 N=2, three sizes, k=1)")
	note := fs.String("note", "", "free-form note recorded in the table")
	sizeStr := fs.String("size", "64KB", "message size (lookup mode)")
	fs.Parse(args)

	engines, err := parseList(*enginesStr, realEngine)
	if err != nil {
		return err
	}
	procs, err := parseList(shape.p, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	nodes, err := parseList(shape.nodes, strconv.Atoi)
	if err != nil {
		return fmt.Errorf("-nodes: %w", err)
	}
	var piped []bool
	switch *pipeline {
	case "off", "":
		piped = []bool{false}
	case "on":
		piped = []bool{true}
	case "both":
		piped = []bool{false, true}
	default:
		return fmt.Errorf("-pipeline: want off, on or both, got %q", *pipeline)
	}
	if *lookup {
		return runLookup(*tablePath, engines, procs, nodes, piped, *sizeStr)
	}
	sizes, err := parseList(*sizesStr, bench.ParseSize)
	if err != nil {
		return err
	}
	algs, err := parseList(*algsStr, encag.ParseAlg)
	if err != nil {
		return err
	}

	grid := bench.TuneGrid{Engines: engines, Pipelining: piped, Procs: procs, Nodes: nodes,
		Sizes: sizes, Algs: algs, BestOf: *k}
	if *quick {
		grid = bench.TuneGrid{
			Engines:    []encag.Engine{encag.EngineChan, encag.EngineTCP},
			Pipelining: []bool{false},
			Procs:      []int{4},
			Nodes:      []int{2},
			Sizes:      []int64{256, 16 << 10, 128 << 10},
			BestOf:     1,
		}
	}
	start := time.Now()
	table, reports, err := bench.TuneSweep(grid)
	if err != nil {
		return err
	}
	table.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	table.Host, _ = os.Hostname()
	table.Note = *note

	for _, rep := range reports {
		if err := rep.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	data, err := table.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d cells to %s (%.1fs sweep)\n", len(table.Cells), *out, time.Since(start).Seconds())
	return nil
}

// runLookup prints the algorithm alg=auto would pick for one
// configuration under the given table — exactly the session's policy:
// table argmin (restricted to encrypted algorithms), falling back to the
// built-in thresholds when the table has no matching cell.
func runLookup(tablePath string, engines []encag.Engine, procs, nodes []int, piped []bool, sizeStr string) error {
	var table *tune.Table
	if tablePath != "" {
		var err error
		if table, err = tune.Load(tablePath); err != nil {
			return err
		}
	}
	if len(engines) != 1 || len(procs) != 1 || len(nodes) != 1 || len(piped) != 1 {
		return fmt.Errorf("lookup mode takes exactly one engine, -p, -nodes and -pipeline value")
	}
	size, err := bench.ParseSize(sizeStr)
	if err != nil {
		return err
	}
	// Mirror the session's auto-candidate filter: only encrypted
	// algorithms may be selected, whatever the table claims.
	valid := func(name string) bool { return encag.Alg(name).Encrypted() }
	k := tune.Key{
		Bucket:    tune.BucketOf(size),
		P:         procs[0],
		N:         nodes[0],
		Engine:    string(engines[0]),
		Pipelined: piped[0],
	}
	fmt.Println(tune.NewTuner(table, valid).Pick(k, size))
	return nil
}
