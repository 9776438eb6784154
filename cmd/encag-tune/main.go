// Command encag-tune measures the algorithm crossovers on this host and
// emits the tuning table that drives alg=auto.
//
// Sweep mode (the default) runs every candidate algorithm over a grid of
// engines × cluster shapes × message sizes on real sessions, best-of-k,
// and writes the versioned JSON table plus a human-readable crossover
// report per configuration:
//
//	encag-tune -o tune.json                          # full default grid
//	encag-tune -quick -o tune.json                   # reduced smoke grid
//	encag-tune -engines tcp -p 8 -nodes 2 \
//	    -sizes 1KB,16KB,256KB -k 5 -o tune.json
//
// Lookup mode answers "what would alg=auto pick here?" from an existing
// table — one algorithm name on stdout, for scripting:
//
//	encag-tune -lookup -table tune.json -engines tcp -p 4 -nodes 2 -size 64KB
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"encag"
	"encag/internal/bench"
	"encag/internal/encrypted"
	"encag/internal/tune"
)

func main() {
	lookup := flag.Bool("lookup", false, "lookup mode: print the alg=auto pick for one configuration and exit")
	tablePath := flag.String("table", "", "existing tuning table to consult (lookup mode)")
	out := flag.String("o", "tune.json", "output path for the tuning table (sweep mode)")
	enginesStr := flag.String("engines", "chan,tcp", "comma-separated engines to sweep (chan, tcp)")
	pStr := flag.String("p", "4,8", "comma-separated process counts, index-aligned with -nodes")
	nodesStr := flag.String("nodes", "2,2", "comma-separated node counts, index-aligned with -p")
	sizesStr := flag.String("sizes", "256B,1KB,4KB,16KB,64KB,256KB", "comma-separated message sizes")
	algsStr := flag.String("algs", "", "comma-separated candidate algorithms (default: the paper's eight)")
	k := flag.Int("k", 3, "best-of-k runs per (cell, algorithm)")
	pipeline := flag.String("pipeline", "off", "pipelining modes to sweep: off, on or both")
	quick := flag.Bool("quick", false, "reduced grid for a fast smoke run (chan+tcp, p=4 N=2, three sizes, k=1)")
	note := flag.String("note", "", "free-form note recorded in the table")
	sizeStr := flag.String("size", "64KB", "message size (lookup mode)")
	flag.Parse()

	if *lookup {
		runLookup(*tablePath, *enginesStr, *pStr, *nodesStr, *sizeStr, *pipeline)
		return
	}

	grid, err := buildGrid(*enginesStr, *pStr, *nodesStr, *sizesStr, *algsStr, *pipeline, *k, *quick)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	table, reports, err := bench.TuneSweep(grid)
	if err != nil {
		fatal(err)
	}
	table.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	table.Host, _ = os.Hostname()
	table.Note = *note

	for _, rep := range reports {
		if err := rep.Render(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	data, err := table.Encode()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d cells to %s (%.1fs sweep)\n", len(table.Cells), *out, time.Since(start).Seconds())
}

// buildGrid translates the flag strings into a validated TuneGrid.
func buildGrid(enginesStr, pStr, nodesStr, sizesStr, algsStr, pipeline string, k int, quick bool) (bench.TuneGrid, error) {
	var g bench.TuneGrid
	if quick {
		g = bench.TuneGrid{
			Engines:    []encag.Engine{encag.EngineChan, encag.EngineTCP},
			Pipelining: []bool{false},
			Procs:      []int{4},
			Nodes:      []int{2},
			Sizes:      []int64{256, 16 << 10, 128 << 10},
			BestOf:     1,
		}
		return g, nil
	}
	for _, e := range splitList(enginesStr) {
		g.Engines = append(g.Engines, encag.Engine(e))
	}
	procs, err := parseInts(pStr)
	if err != nil {
		return g, fmt.Errorf("-p: %w", err)
	}
	nodes, err := parseInts(nodesStr)
	if err != nil {
		return g, fmt.Errorf("-nodes: %w", err)
	}
	g.Procs, g.Nodes = procs, nodes
	for _, s := range splitList(sizesStr) {
		n, err := bench.ParseSize(s)
		if err != nil {
			return g, err
		}
		g.Sizes = append(g.Sizes, n)
	}
	for _, a := range splitList(algsStr) {
		alg, err := encag.ParseAlg(a)
		if err != nil {
			return g, err
		}
		g.Algs = append(g.Algs, alg)
	}
	switch pipeline {
	case "off", "":
		g.Pipelining = []bool{false}
	case "on":
		g.Pipelining = []bool{true}
	case "both":
		g.Pipelining = []bool{false, true}
	default:
		return g, fmt.Errorf("-pipeline: want off, on or both, got %q", pipeline)
	}
	g.BestOf = k
	return g, nil
}

// runLookup prints the algorithm alg=auto would pick for one
// configuration under the given table — exactly the session's policy:
// table argmin (restricted to encrypted algorithms), falling back to the
// built-in thresholds when the table has no matching cell.
func runLookup(tablePath, enginesStr, pStr, nodesStr, sizeStr, pipeline string) {
	var table *tune.Table
	if tablePath != "" {
		var err error
		if table, err = tune.Load(tablePath); err != nil {
			fatal(err)
		}
	}
	engines := splitList(enginesStr)
	procs, err := parseInts(pStr)
	if err != nil {
		fatal(fmt.Errorf("-p: %w", err))
	}
	nodes, err := parseInts(nodesStr)
	if err != nil {
		fatal(fmt.Errorf("-nodes: %w", err))
	}
	if len(engines) != 1 || len(procs) != 1 || len(nodes) != 1 {
		fatal(fmt.Errorf("lookup mode takes exactly one engine, -p and -nodes value"))
	}
	size, err := bench.ParseSize(sizeStr)
	if err != nil {
		fatal(err)
	}
	if pipeline != "off" && pipeline != "on" && pipeline != "" {
		fatal(fmt.Errorf("-pipeline: lookup mode wants off or on, got %q", pipeline))
	}
	// Mirror the session's auto-candidate filter: only encrypted
	// algorithms may be selected, whatever the table claims.
	valid := func(name string) bool {
		_, err := encrypted.Get(name)
		return err == nil
	}
	k := tune.Key{
		Bucket:    tune.BucketOf(size),
		P:         procs[0],
		N:         nodes[0],
		Engine:    engines[0],
		Pipelined: pipeline == "on",
	}
	fmt.Println(tune.NewTuner(table, valid).Pick(k, size))
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
