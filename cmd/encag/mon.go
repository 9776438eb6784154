package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"encag"
	"encag/internal/bench"
)

// cmdMon runs a live encrypted all-gather workload on one persistent
// Session with the debug HTTP server enabled, so the session's metrics
// can be watched while collectives are actually in flight:
//
//	encag mon -engine tcp -p 8 -nodes 2 -window 4 -addr 127.0.0.1:9090
//	curl http://127.0.0.1:9090/metrics       # Prometheus text format
//	curl http://127.0.0.1:9090/debug/vars    # expvar-style JSON
//	go tool pprof http://127.0.0.1:9090/debug/pprof/profile?seconds=5
//
// The workload issues nonblocking collectives through Session.Start as
// fast as the in-flight window admits them, for -duration (0 = until
// interrupted). On exit it drains the window and prints a snapshot
// summary of what the session observed.
func cmdMon(args []string) error {
	fs := newFlags("mon")
	shape := specFlags{p: "8", nodes: "2"}
	shape.register(fs, "p", "nodes", "mapping")
	engineStr := fs.String("engine", "tcp", "execution engine: chan or tcp")
	algName := fs.String("alg", "hs2", "algorithm name (see encag explore); \"auto\" consults the tuning table")
	tablePath := fs.String("table", "", "tuning table JSON for alg=auto (default: $ENCAG_TUNING_TABLE, else built-in thresholds)")
	refine := fs.Bool("refine", true, "let alg=auto fold this session's own latencies back into its estimates")
	sizeStr := fs.String("size", "64KB", "message size")
	window := fs.Int("window", 4, "nonblocking in-flight window")
	pipeline := fs.Bool("pipeline", false, "stream sealed segments onto the wire inside each collective (tcp engine only)")
	interval := fs.Duration("interval", 0, "pause between Start calls (0 = rely on window backpressure)")
	duration := fs.Duration("duration", 0, "how long to run (0 = until SIGINT)")
	addr := fs.String("addr", "", "debug server listen address (empty = ephemeral loopback port)")
	fs.Parse(args)

	size, err := bench.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	alg, err := encag.ParseAlg(*algName)
	if err != nil {
		return err
	}
	engine, err := realEngine(*engineStr)
	if err != nil {
		return err
	}
	spec, err := shape.spec()
	if err != nil {
		return err
	}

	ctx, stop := runContext(*duration)
	defer stop()

	opts := []encag.Option{
		encag.WithEngine(engine),
		encag.WithMaxInFlight(*window),
		encag.WithDebugServer(*addr),
		encag.WithPipelining(*pipeline),
	}
	if *tablePath != "" {
		table, err := encag.LoadTuningTable(*tablePath)
		if err != nil {
			return err
		}
		opts = append(opts, encag.WithTuningTable(table))
	}
	if !*refine {
		opts = append(opts, encag.WithTuningRefinement(false))
	}
	sess, err := encag.OpenSession(context.Background(), spec, opts...)
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("encag-mon: %s %s p=%d nodes=%d window=%d pipeline=%v\n",
		engine, alg, spec.Procs, spec.Nodes, *window, *pipeline)
	fmt.Printf("metrics at http://%s/metrics (also /debug/vars, /debug/pprof/)\n", sess.DebugAddr())

	// Issue collectives until the context ends; the in-flight window is
	// the natural throttle when no interval is set. Start blocks on a
	// full window, so ctx doubles as the admission bound.
	var started int64
	for ctx.Err() == nil {
		h, err := sess.Start(ctx, alg, size)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			return err
		}
		started++
		go func() {
			if _, err := h.Wait(); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
		if *interval > 0 {
			select {
			case <-time.After(*interval):
			case <-ctx.Done():
			}
		}
	}
	if err := sess.WaitAll(context.Background()); err != nil {
		// Operations cancelled by the shutdown are the expected way the
		// run ends, not a failure worth reporting.
		var re *encag.RankError
		if !errors.As(err, &re) || re.Op != "cancel" {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	snap := sess.Snapshot()
	fmt.Printf("\nran %d collectives (%d completed, %d failed, %d cancelled)\n",
		started, snap.OpsCompleted, snap.OpsFailed, snap.OpsCancelled)
	fmt.Printf("op latency: p50=%v p95=%v p99=%v\n",
		time.Duration(snap.OpLatency.P50), time.Duration(snap.OpLatency.P95), time.Duration(snap.OpLatency.P99))
	fmt.Printf("window waits=%d  frames sent=%d recv=%d  bytes sent=%d\n",
		snap.WindowWaits, snap.FramesSent, snap.FramesRecv, snap.BytesSent)
	fmt.Printf("seal: segments sealed=%d opened=%d  pool saturated=%d\n",
		snap.SegmentsSealed, snap.SegmentsOpened, snap.PoolSaturated)
	if *pipeline {
		fmt.Printf("pipeline: streams=%d segments sent=%d recv=%d opened=%d\n",
			snap.PipelineStreams, snap.PipelineSegmentsSent, snap.PipelineSegmentsRecv, snap.PipelineInlineOpens)
	}
	if engine == encag.EngineTCP {
		fmt.Printf("wire: %d bytes  reconnects=%d resends=%d dedup drops=%d\n",
			snap.WireBytes, snap.Reconnects, snap.Resends, snap.DedupDrops)
	}
	if len(snap.AutoSelected) > 0 {
		fmt.Printf("auto selected:")
		for name, n := range snap.AutoSelected {
			fmt.Printf(" %s=%d", name, n)
		}
		fmt.Println()
	}
	return nil
}
