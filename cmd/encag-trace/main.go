// Command encag-trace renders an activity timeline of one encrypted
// all-gather on any of the three engines: the discrete-event simulator
// (predicted, virtual time), the real in-memory engine or the loopback
// TCP engine (both measured, wall-clock time). It makes visible *why*
// an algorithm wins — e.g. Naive's serial decryption tail versus HS2's
// parallel joint decryption — and lets the model's predicted timeline
// be laid next to a real run's measured one.
//
// Formats: "text" is the ASCII Gantt chart plus the critical rank's
// breakdown; "chrome" is Chrome trace_event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing with one track per
// rank; "jsonl" is a one-line structured run summary (spec, algorithm,
// the paper's six critical-path metrics, per-phase totals, wire
// capture).
//
// Examples:
//
//	encag-trace -alg naive -p 16 -nodes 4 -size 64KB
//	encag-trace -engine tcp -alg hs2 -p 8 -nodes 2 -format chrome -o trace.json
//	encag-trace -engine real -alg c-rd -p 16 -nodes 4 -format jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"encag"
	"encag/internal/bench"
	"encag/internal/cluster"
	"encag/internal/obs"
)

func main() {
	algName := flag.String("alg", "hs2", "algorithm name (see encag-explore)")
	p := flag.Int("p", 16, "number of processes")
	nodes := flag.Int("nodes", 4, "number of nodes")
	mapping := flag.String("mapping", "block", "process mapping: block or cyclic")
	sizeStr := flag.String("size", "64KB", "message size")
	profName := flag.String("profile", "noleland", "machine profile (sim engine only)")
	width := flag.Int("width", 100, "gantt width in characters (text format)")
	engine := flag.String("engine", "sim", "execution engine: sim, real or tcp")
	format := flag.String("format", "text", "output format: text, chrome or jsonl")
	outPath := flag.String("o", "", "write output to this file instead of stdout")
	flag.Parse()

	size, err := bench.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	alg, err := encag.ParseAlg(*algName)
	if err != nil {
		fatal(err)
	}
	switch *format {
	case "text", "chrome", "jsonl":
	default:
		fatal(fmt.Errorf("unknown format %q (want text, chrome or jsonl)", *format))
	}
	// Spec construction rejects unknown mappings instead of silently
	// falling back to block.
	spec := encag.Spec{Procs: *p, Nodes: *nodes, Mapping: *mapping}

	tr := &encag.TraceCollector{}
	opts := []encag.Option{encag.WithTracer(tr)}
	switch *engine {
	case "sim":
		prof, err := encag.ProfileByName(*profName)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, encag.WithEngine(encag.EngineSim), encag.WithProfile(prof))
	case "real":
		opts = append(opts, encag.WithEngine(encag.EngineChan))
	case "tcp":
		opts = append(opts, encag.WithEngine(encag.EngineTCP))
	default:
		fatal(fmt.Errorf("unknown engine %q (want sim, real or tcp)", *engine))
	}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, spec, opts...)
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	var (
		summary obs.RunSummary
		header  string
	)
	if *engine == "sim" {
		res, err := s.Simulate(ctx, alg, size)
		if err != nil {
			fatal(err)
		}
		summary = obs.Summarize("sim", string(alg), clusterSpec(spec), size,
			res.Latency.Seconds(), res.Metrics, tr.Events).
			WithSelected(string(res.Algorithm))
		header = fmt.Sprintf("%s on p=%d nodes=%d %s, %s blocks [sim/%s]: predicted latency %v",
			alg, *p, *nodes, *mapping, bench.SizeName(size), *profName, res.Latency)
	} else {
		res, err := s.Run(ctx, alg, size)
		if err != nil {
			fatal(err)
		}
		summary = obs.Summarize(*engine, string(alg), clusterSpec(spec), size,
			res.Elapsed.Seconds(), res.Metrics, tr.Events).
			WithSecurity(res.SecurityOK).
			WithSelected(string(res.Algorithm)).
			WithOp(res.OpID, 1)
		header = fmt.Sprintf("%s on p=%d nodes=%d %s, %s blocks [%s]: elapsed %v, security ok=%v",
			alg, *p, *nodes, *mapping, bench.SizeName(size), *engine, res.Elapsed, res.SecurityOK)
		if wire := s.Wire(); wire != nil {
			summary = summary.WithWire(wire.Bytes, wire.Truncated)
			header += fmt.Sprintf(", wire %d bytes (truncated=%v)", wire.Bytes, wire.Truncated)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}

	switch *format {
	case "text":
		fmt.Fprintf(out, "%s\n\n", header)
		if err := tr.Gantt(out, *p, *width); err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
		if err := tr.WriteBreakdown(out, *p); err != nil {
			fatal(err)
		}
	case "chrome":
		if err := obs.WriteChromeTrace(out, tr.Events); err != nil {
			fatal(err)
		}
	case "jsonl":
		if err := summary.WriteJSONL(out); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown format %q (want text, chrome or jsonl)", *format))
	}
}

// clusterSpec mirrors the facade spec for the summary record; the
// mapping string was already validated by the run.
func clusterSpec(s encag.Spec) cluster.Spec {
	cs := cluster.Spec{P: s.Procs, N: s.Nodes}
	if s.Mapping == "cyclic" {
		cs.Mapping = cluster.CyclicMapping
	}
	return cs
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
