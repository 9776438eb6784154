package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"encag"
	"encag/internal/bench"
)

// newFlags is a subcommand's flag set. Parse on it cannot return: -h
// exits 0 and a refused command line exits 2, both after printing the
// flags, exactly as a stand-alone command's flag.Parse does.
func newFlags(sub string) *flag.FlagSet {
	return flag.NewFlagSet("encag "+sub, flag.ExitOnError)
}

// specFlags are the job-shape flags the subcommands share. A subcommand
// sets p and nodes to its defaults and registers the flags it takes.
// -p and -nodes are comma lists because tune sweeps several shapes;
// spec is for the other subcommands, which take exactly one.
type specFlags struct {
	p, nodes, mapping, segment string
	workers                    int
}

func (f *specFlags) register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "p":
			fs.StringVar(&f.p, name, f.p, "number of processes (tune: comma-separated, index-aligned with -nodes)")
		case "nodes":
			fs.StringVar(&f.nodes, name, f.nodes, "number of nodes (tune: comma-separated, index-aligned with -p)")
		case "mapping":
			fs.StringVar(&f.mapping, name, "block", "process mapping: block or cyclic")
		case "crypto-workers":
			fs.IntVar(&f.workers, name, 0, "AES-GCM worker pool size (0 = shared GOMAXPROCS pool)")
		case "segment-size":
			fs.StringVar(&f.segment, name, "", "AES-GCM segmentation split size, e.g. 64KB (empty = 64 KiB default); small values force multi-segment seals")
		default:
			panic("specFlags: no shared flag -" + name)
		}
	}
}

// spec builds the one job the parsed flags describe. An unknown mapping
// is refused by OpenSession, not silently run as block.
func (f *specFlags) spec() (encag.Spec, error) {
	s := encag.Spec{Mapping: f.mapping}
	var err error
	if s.Procs, err = strconv.Atoi(f.p); err != nil {
		return s, fmt.Errorf("-p: %w", err)
	}
	if s.Nodes, err = strconv.Atoi(f.nodes); err != nil {
		return s, fmt.Errorf("-nodes: %w", err)
	}
	s.SegmentSize, err = f.segmentSize()
	return s, err
}

// cryptoPool is the pool -crypto-workers asks for, nil (the shared pool)
// when it is 0, and the close the command defers.
func (f *specFlags) cryptoPool() (*encag.CryptoPool, func()) {
	if f.workers <= 0 {
		return nil, func() {}
	}
	p := encag.NewCryptoPool(f.workers)
	return p, p.Close
}

// segmentSize is -segment-size in bytes, 0 when unset.
func (f *specFlags) segmentSize() (int64, error) {
	if f.segment == "" {
		return 0, nil
	}
	return bench.ParseSize(f.segment)
}

// realEngine checks the -engine value of a subcommand that runs real
// sessions only.
func realEngine(name string) (encag.Engine, error) {
	e := encag.Engine(name)
	if e != encag.EngineChan && e != encag.EngineTCP {
		return "", fmt.Errorf("unknown -engine %q (want chan or tcp)", name)
	}
	return e, nil
}

// parseList parses a comma-separated flag value item by item, trimming
// space and skipping empty items.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item == "" {
			continue
		}
		v, err := parse(item)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// runContext ends on SIGINT, and after d when d > 0.
func runContext(d time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	if d <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	return ctx, func() { cancel(); stop() }
}

// profiler is the -cpuprofile/-memprofile pair of the measuring
// subcommands.
type profiler struct{ cpu, mem string }

func (p *profiler) register(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to this file on exit")
}

// start begins the CPU profile, if asked for, and returns the stop that
// ends it and writes the post-GC heap profile. By then the run's outcome
// is decided, so stop reports its own failure on stderr only.
func (p *profiler) start() (stop func(), err error) {
	var cpu *os.File
	if p.cpu != "" {
		if cpu, err = os.Create(p.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if p.mem == "" {
			return
		}
		f, err := os.Create(p.mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}, nil
}
