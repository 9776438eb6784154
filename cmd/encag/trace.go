package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"encag"
	"encag/internal/bench"
	"encag/internal/cluster"
	"encag/internal/obs"
)

// cmdTrace renders an activity timeline of one encrypted all-gather on
// any of the three engines: the discrete-event simulator (predicted,
// virtual time), the in-memory chan engine or the loopback TCP engine
// (both measured, wall-clock time). It makes visible *why* an algorithm
// wins — e.g. Naive's serial decryption tail versus HS2's parallel
// joint decryption — and lets the model's predicted timeline be laid
// next to a real run's measured one.
//
// Formats: "text" is the ASCII Gantt chart plus the critical rank's
// breakdown; "chrome" is Chrome trace_event JSON, loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing with one track per
// rank; "jsonl" is a one-line structured run summary (spec, algorithm,
// the paper's six critical-path metrics, per-phase totals, wire
// capture).
//
//	encag trace -alg naive -p 16 -nodes 4 -size 64KB
//	encag trace -engine tcp -alg hs2 -p 8 -nodes 2 -format chrome -o trace.json
//	encag trace -engine chan -alg c-rd -p 16 -nodes 4 -format jsonl
func cmdTrace(args []string) (err error) {
	fs := newFlags("trace")
	algName := fs.String("alg", "hs2", "algorithm name (see encag explore)")
	shape := specFlags{p: "16", nodes: "4"}
	shape.register(fs, "p", "nodes", "mapping")
	sizeStr := fs.String("size", "64KB", "message size")
	profName := fs.String("profile", "noleland", "machine profile (sim engine only)")
	width := fs.Int("width", 100, "gantt width in characters (text format)")
	engine := fs.String("engine", "sim", "execution engine: sim, chan or tcp")
	format := fs.String("format", "text", "output format: text, chrome or jsonl")
	outPath := fs.String("o", "", "write output to this file instead of stdout")
	fs.Parse(args)

	size, err := bench.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	alg, err := encag.ParseAlg(*algName)
	if err != nil {
		return err
	}
	switch *format {
	case "text", "chrome", "jsonl":
	default:
		return fmt.Errorf("unknown format %q (want text, chrome or jsonl)", *format)
	}
	spec, err := shape.spec()
	if err != nil {
		return err
	}

	eng := encag.Engine(*engine)
	if eng != encag.EngineSim && eng != encag.EngineChan && eng != encag.EngineTCP {
		return fmt.Errorf("unknown engine %q (want sim, chan or tcp)", *engine)
	}
	tr := &encag.TraceCollector{}
	opts := []encag.Option{encag.WithTracer(tr), encag.WithEngine(eng)}
	if eng == encag.EngineSim {
		prof, err := encag.ProfileByName(*profName)
		if err != nil {
			return err
		}
		opts = append(opts, encag.WithProfile(prof))
	}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, spec, opts...)
	if err != nil {
		return err
	}
	defer s.Close()

	var (
		summary obs.RunSummary
		header  string
	)
	if eng == encag.EngineSim {
		res, err := s.Simulate(ctx, alg, size)
		if err != nil {
			return err
		}
		summary = obs.Summarize("sim", string(alg), clusterSpec(spec), size,
			res.Latency.Seconds(), res.Metrics, tr.Events).
			WithSelected(string(res.Algorithm))
		header = fmt.Sprintf("%s on p=%d nodes=%d %s, %s blocks [sim/%s]: predicted latency %v",
			alg, spec.Procs, spec.Nodes, spec.Mapping, bench.SizeName(size), *profName, res.Latency)
	} else {
		res, err := s.Run(ctx, alg, size)
		if err != nil {
			return err
		}
		summary = obs.Summarize(*engine, string(alg), clusterSpec(spec), size,
			res.Elapsed.Seconds(), res.Metrics, tr.Events).
			WithSecurity(res.SecurityOK).
			WithSelected(string(res.Algorithm)).
			WithOp(res.OpID, 1)
		header = fmt.Sprintf("%s on p=%d nodes=%d %s, %s blocks [%s]: elapsed %v, security ok=%v",
			alg, spec.Procs, spec.Nodes, spec.Mapping, bench.SizeName(size), *engine, res.Elapsed, res.SecurityOK)
		if wire := s.Wire(); wire != nil {
			summary = summary.WithWire(wire.Bytes, wire.Truncated)
			header += fmt.Sprintf(", wire %d bytes (truncated=%v)", wire.Bytes, wire.Truncated)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, oerr := os.Create(*outPath)
		if oerr != nil {
			return oerr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		out = f
	}

	switch *format {
	case "text":
		fmt.Fprintf(out, "%s\n\n", header)
		if err := tr.Gantt(out, spec.Procs, *width); err != nil {
			return err
		}
		fmt.Fprintln(out)
		return tr.WriteBreakdown(out, spec.Procs)
	case "chrome":
		return obs.WriteChromeTrace(out, tr.Events)
	default:
		return summary.WriteJSONL(out)
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
