package bench

import (
	"context"
	"fmt"
	"math"

	"encag"
	"encag/internal/tune"
)

// TuneGrid describes one offline tuning sweep: the cross product of
// engines, pipelining modes, cluster shapes and message sizes, each
// cell measuring every candidate algorithm best-of-k. The grid is what
// encag tune drives; TuneSweep turns it into the tuning table
// alg=auto consumes plus human-readable crossover reports.
type TuneGrid struct {
	// Engines to measure on ("chan", "tcp"); each engine gets its own
	// table cells — crossovers move with the transport.
	Engines []encag.Engine
	// Pipelining lists the pipelining modes to sweep (false, true);
	// pipelining shifts the large-message crossovers.
	Pipelining []bool
	// Procs/Nodes pairs index-align: shape i is (Procs[i], Nodes[i]).
	Procs []int
	Nodes []int
	// Sizes are the per-rank block sizes in bytes.
	Sizes []int64
	// Algs are the candidate algorithms (default: the paper's eight),
	// each one alg=auto could pick: encrypted, never a plaintext
	// baseline or auto itself.
	Algs []encag.Alg
	// BestOf runs each (cell, algorithm) this many times and keeps the
	// minimum — the standard "best of k" defense against scheduler
	// noise. <= 0 selects 3.
	BestOf int
}

// Validate applies defaults and rejects malformed grids.
func (g *TuneGrid) Validate() error {
	if len(g.Engines) == 0 {
		g.Engines = []encag.Engine{encag.EngineChan, encag.EngineTCP}
	}
	if len(g.Pipelining) == 0 {
		g.Pipelining = []bool{false}
	}
	if len(g.Procs) == 0 || len(g.Procs) != len(g.Nodes) {
		return fmt.Errorf("bench: tune grid needs index-aligned Procs/Nodes (%d vs %d)", len(g.Procs), len(g.Nodes))
	}
	if len(g.Sizes) == 0 {
		return fmt.Errorf("bench: tune grid has no sizes")
	}
	if len(g.Algs) == 0 {
		g.Algs = encag.PaperAlgorithms()
	}
	for _, a := range g.Algs {
		pa, err := encag.ParseAlg(string(a))
		if err != nil {
			return err
		}
		if !pa.Encrypted() {
			return fmt.Errorf("bench: tune candidate %q is not an encrypted algorithm, and alg=auto picks only those", a)
		}
	}
	if g.BestOf <= 0 {
		g.BestOf = 3
	}
	return nil
}

// TuneSweep measures the grid and returns the tuning table plus one
// crossover-report Table per (engine, pipelining, shape) configuration.
// All measurements in one configuration share a session, so the sweep
// times steady-state collectives — what alg=auto selections will
// actually experience — not mesh setup. Sizes landing in the same
// bucket merge by per-algorithm minimum.
func TuneSweep(g TuneGrid) (*tune.Table, []Table, error) {
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	table := &tune.Table{Version: tune.Version}
	cells := make(map[tune.Key]*tune.Cell)
	var reports []Table
	for _, eng := range g.Engines {
		for _, piped := range g.Pipelining {
			for i := range g.Procs {
				rep, err := sweepConfig(g, eng, piped, g.Procs[i], g.Nodes[i], cells)
				if err != nil {
					return nil, nil, err
				}
				reports = append(reports, rep)
			}
		}
	}
	for _, c := range cells {
		c.Best = tune.Argmin(c.LatencyNS)
		table.Cells = append(table.Cells, *c)
	}
	if _, err := table.Encode(); err != nil { // also sorts the cells
		return nil, nil, err
	}
	return table, reports, nil
}

// sweepConfig measures one (engine, pipelining, p, n) configuration
// over all sizes and algorithms, folding measurements into cells and
// returning the human-readable crossover report.
func sweepConfig(g TuneGrid, eng encag.Engine, piped bool, p, n int, cells map[tune.Key]*tune.Cell) (Table, error) {
	mode := ""
	if piped {
		mode = ", pipelined"
	}
	rep := Table{
		ID:    fmt.Sprintf("tune-%s-p%d-n%d%s", eng, p, n, map[bool]string{true: "-pipe"}[piped]),
		Title: fmt.Sprintf("Crossover sweep (engine=%s p=%d N=%d%s, best of %d)", eng, p, n, mode, g.BestOf),
		YUnit: "latency (us)",
		Notes: []string{"wall clock on this host; winner is the argmin per size"},
	}
	rep.Headers = []string{"size", "bucket"}
	for _, a := range g.Algs {
		rep.Headers = append(rep.Headers, string(a))
	}
	rep.Headers = append(rep.Headers, "winner")

	opts := []encag.Option{encag.WithEngine(eng)}
	if piped {
		opts = append(opts, encag.WithPipelining(true))
	}
	ctx := context.Background()
	spec := encag.Spec{Procs: p, Nodes: n}
	s, err := encag.OpenSession(ctx, spec, opts...)
	if err != nil {
		return Table{}, fmt.Errorf("tune sweep %s p=%d n=%d: %w", eng, p, n, err)
	}
	defer s.Close()

	for _, m := range g.Sizes {
		row := []string{SizeName(m), fmt.Sprint(tune.BucketOf(m))}
		winner, winnerNS := "", math.Inf(1)
		for _, alg := range g.Algs {
			t, err := TimeCell(ctx, s, alg, m, 1, g.BestOf, 1)
			if err != nil {
				return Table{}, fmt.Errorf("tune sweep %s p=%d n=%d %s @%s: %w", eng, p, n, alg, SizeName(m), err)
			}
			ns := float64(t.Min().Nanoseconds())
			row = append(row, fmtUS(ns/1e9))
			if ns < winnerNS {
				winnerNS, winner = ns, string(alg)
			}
			key := tune.Key{Bucket: tune.BucketOf(m), P: p, N: n, Engine: string(eng), Pipelined: piped}
			c := cells[key]
			if c == nil {
				c = &tune.Cell{Key: key, LatencyNS: make(map[string]float64)}
				cells[key] = c
			}
			if prev, ok := c.LatencyNS[string(alg)]; !ok || ns < prev {
				c.LatencyNS[string(alg)] = ns
			}
		}
		row = append(row, winner)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}
