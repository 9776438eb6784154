package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"encag"
)

// Overlap measures what the nonblocking scheduler buys: a batch of N
// all-gathers issued back-to-back with Session.Run completes them
// strictly one after another, while the same batch issued with
// Session.Start under an in-flight window of w keeps up to w
// collectives interleaving their frames on the shared mesh. Small
// messages pipeline well — each op alone leaves most of every link
// idle between its frames — so the windowed columns should beat the
// serialized one clearly at 1KB and more modestly at 64KB, where the
// links are already kept busy by a single op.
//
// The "tcp+pipe" rows rerun the same batch on TCP sessions opened with
// WithPipelining(true), so sealed segments stream onto the wire inside
// each collective (chan sessions ignore the option). They only appear
// at sizes past the streaming threshold; comparing a "+pipe" row against
// its plain counterpart is the pipelined-vs-serial wall-clock study
// EXPERIMENTS.md documents.
//
// Beyond the c-ring baseline, the table carries hierarchical rows
// (hs1, hs2). Only a chunk sealed for its one send streams (O-Ring's
// exit seal, so c-ring's rows do): hs1's leaders forward their sealed
// chunk more than once and hs2's inter-node messages carry several
// chunks, so both go whole and their "+pipe" rows stream nothing.
func Overlap(opts Options) ([]Table, error) {
	ops := opts.Iters
	if ops <= 0 {
		ops = 12
	}
	if opts.Quick && ops > 6 {
		ops = 6
	}
	spec := encag.Spec{Procs: 8, Nodes: 2}
	szs := sizes("1KB", "64KB", "1MB")
	if opts.Quick {
		szs = sizes("1KB", "64KB")
	}
	t := Table{
		ID:    "overlap",
		Title: fmt.Sprintf("Serialized vs multiplexed in-flight all-gathers (p=%d N=%d, %d ops)", spec.Procs, spec.Nodes, ops),
		Headers: []string{"engine", "alg", "size", "ops",
			"serialized(us)", "w=2(us)", "w=4(us)", "w=8(us)", "best-speedup"},
		Notes: []string{
			"serialized: N back-to-back Session.Run calls on one session",
			"w=k: the same N collectives via Session.Start under WithMaxInFlight(k), each handle then waited on in order",
			"engine 'tcp+pipe' rows open the session with WithPipelining(true): sealed segments stream onto the wire inside each op",
			"only single-chunk sealed messages stream: hs1's leader exchange does, hs2's multi-chunk inter-node messages go whole, so its '+pipe' rows stream nothing",
			"session setup and warm-up are untimed: this is steady-state pipelining, not mesh amortization",
			"wall clock on this host; loopback sockets, real AES-GCM",
		},
	}
	variants := []struct {
		label string
		eng   encag.Engine
		alg   encag.Alg
		piped bool
	}{
		{"chan", encag.EngineChan, "c-ring", false},
		{"tcp", encag.EngineTCP, "c-ring", false},
		{"tcp+pipe", encag.EngineTCP, "c-ring", true},
		{"chan", encag.EngineChan, "hs1", false},
		{"tcp", encag.EngineTCP, "hs1", false},
		{"tcp+pipe", encag.EngineTCP, "hs1", true},
		{"chan", encag.EngineChan, "hs2", false},
		{"tcp", encag.EngineTCP, "hs2", false},
		{"tcp+pipe", encag.EngineTCP, "hs2", true},
	}
	for _, v := range variants {
		for _, m := range szs {
			if v.piped && m < 16<<10 {
				continue // below the streaming threshold: identical to the plain row
			}
			row := []string{v.label, string(v.alg), SizeName(m), fmt.Sprint(ops)}
			var walls []time.Duration
			for _, w := range []int{1, 2, 4, 8} { // 1: serialized
				d, err := timeOverlap(v.eng, spec, v.alg, m, ops, w, v.piped)
				if err != nil {
					return nil, err
				}
				walls = append(walls, d)
				row = append(row, fmtUS(d.Seconds()))
			}
			row = append(row, fmt.Sprintf("%.2fx", walls[0].Seconds()/slices.Min(walls).Seconds()))
			t.Rows = append(t.Rows, row)
		}
	}
	return []Table{t}, nil
}

// timeOverlap times ops collectives on a fresh session with the given
// in-flight window and returns their batch wall clock: window 1 issues
// them serially through Run, larger windows through Start. Open, one
// warm-up collective and Close stay outside the timed region.
func timeOverlap(eng encag.Engine, spec encag.Spec, alg encag.Alg, m int64, ops, window int, piped bool) (time.Duration, error) {
	ctx := context.Background()
	sopts := []encag.Option{encag.WithEngine(eng), encag.WithMaxInFlight(window)}
	if piped {
		sopts = append(sopts, encag.WithPipelining(true))
	}
	s, err := encag.OpenSession(ctx, spec, sopts...)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	t, err := TimeCell(ctx, s, alg, m, 1, ops, window)
	if err != nil {
		return 0, fmt.Errorf("overlap w=%d %s/%s @%s: %w", window, eng, alg, SizeName(m), err)
	}
	return t.Wall, nil
}
