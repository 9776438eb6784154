// Command encag-verify runs the full correctness and security sweep on
// the real execution engine: every encrypted algorithm, across a matrix
// of process counts, node counts, mappings and message sizes, with real
// AES-GCM over real payloads. It checks that
//
//   - every rank ends with every rank's plaintext block, byte-exact;
//   - no plaintext ever crosses a node boundary (transport audit);
//   - no GCM nonce is ever reused.
//
// With -faults it additionally runs the chaos sweep: every algorithm
// under deterministic fault-injection plans (connection drops, stalls,
// partial writes, frame corruption), checking the fault-tolerance
// contract — transient plans must complete with byte-exact buffers, and
// any plan must end in either verified completion or a single
// structured RankError, never a hang or a panic.
//
// Exit status 0 means all checks passed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"encag"
)

var ctx = context.Background()

// open opens the session a sweep holds while it stays on one spec; the
// specs are this program's own, so a refusal is a bug, not a test case.
func open(spec encag.Spec, opts ...encag.Option) *encag.Session {
	s, err := encag.OpenSession(ctx, spec, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return s
}

func main() {
	sizeList := flag.String("sizes", "1,17,256,4096", "comma-separated message sizes in bytes")
	verbose := flag.Bool("v", false, "print every case")
	overTCP := flag.Bool("tcp", false, "also run each algorithm over loopback TCP with wire sniffing")
	cryptoWorkers := flag.Int("crypto-workers", 0, "AES-GCM worker pool size (0 = shared GOMAXPROCS pool)")
	segSize := flag.Int64("segment-size", 0, "AES-GCM segmentation split size in bytes (0 = 64 KiB default); small values force multi-segment seals")
	faults := flag.Bool("faults", false, "also run the fault-injection chaos sweep (see -fault-seeds)")
	faultSeeds := flag.Int("fault-seeds", 3, "deterministic seeds per plan family in the chaos sweep")
	flag.Parse()

	var sizes []int64
	for _, s := range splitComma(*sizeList) {
		var v int64
		if _, err := fmt.Sscan(s, &v); err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}

	specs := []encag.Spec{
		{Procs: 4, Nodes: 2},
		{Procs: 8, Nodes: 2},
		{Procs: 8, Nodes: 4, Mapping: "cyclic"},
		{Procs: 8, Nodes: 8},
		{Procs: 12, Nodes: 3},
		{Procs: 12, Nodes: 3, Mapping: "cyclic"},
		{Procs: 16, Nodes: 4},
		{Procs: 16, Nodes: 4, Mapping: "cyclic"},
		{Procs: 21, Nodes: 7},
		{Procs: 32, Nodes: 8},
		{Procs: 12, Nodes: 4, Mapping: "custom",
			Custom: []int{2, 0, 3, 1, 1, 3, 0, 2, 3, 2, 1, 0}},
	}

	for i := range specs {
		specs[i].CryptoWorkers = *cryptoWorkers
		specs[i].SegmentSize = *segSize
	}

	start := time.Now()
	cases, failures := 0, 0
	for _, spec := range specs {
		s := open(spec)
		for _, alg := range encag.PaperAlgorithms() {
			for _, m := range sizes {
				cases++
				res, err := s.Run(ctx, alg, m)
				status := "ok"
				switch {
				case err != nil:
					status = "FAIL: " + err.Error()
				case !res.SecurityOK:
					status = fmt.Sprintf("INSECURE: %v", res.Violations)
				}
				if status != "ok" {
					failures++
					fmt.Printf("%-8s p=%-4d N=%-2d %-7s m=%-8d %s\n",
						alg, spec.Procs, spec.Nodes, mappingName(spec), m, status)
				} else if *verbose {
					fmt.Printf("%-8s p=%-4d N=%-2d %-7s m=%-8d ok (%d inter msgs, %v)\n",
						alg, spec.Procs, spec.Nodes, mappingName(spec), m, res.InterMessages, res.Elapsed.Round(time.Millisecond))
				}
			}
		}
		s.Close()
	}
	if *overTCP {
		for _, spec := range specs[:6] { // keep the socket matrix modest
			s := open(spec, encag.WithEngine(encag.EngineTCP))
			var seen int64 // the wire capture is cumulative over the session
			for _, alg := range encag.PaperAlgorithms() {
				cases++
				res, err := s.Run(ctx, alg, 64)
				status := "ok"
				switch {
				case err != nil:
					status = "FAIL: " + err.Error()
				case !res.SecurityOK:
					status = "INSECURE (audit)"
				case !s.WireClean(64):
					status = "INSECURE (plaintext on the wire)"
				}
				wire := s.Wire().Bytes
				if status != "ok" {
					failures++
					fmt.Printf("tcp %-8s p=%-4d N=%-2d %s\n", alg, spec.Procs, spec.Nodes, status)
					// A leak stays in the capture and a failure may have
					// broken the mesh: judge the next algorithm on a new one.
					s.Close()
					s, wire = open(spec, encag.WithEngine(encag.EngineTCP)), 0
				} else if *verbose {
					fmt.Printf("tcp %-8s p=%-4d N=%-2d ok (%d wire bytes, all ciphertext)\n",
						alg, spec.Procs, spec.Nodes, wire-seen)
				}
				seen = wire
			}
			s.Close()
		}
	}

	if *faults {
		c, f := chaosSweep(*faultSeeds, *verbose)
		cases += c
		failures += f
	}

	fmt.Printf("\n%d cases, %d failures in %v\n", cases, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// chaosSweep exercises every paper algorithm under deterministic fault
// plans on both the TCP and the channel transport, enforcing the
// fault-tolerance contract. It returns (cases, failures).
func chaosSweep(seeds int, verbose bool) (int, int) {
	specs := []encag.Spec{
		{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second},
		{Procs: 8, Nodes: 4, RecvTimeout: 2 * time.Second},
	}
	cases, failures := 0, 0
	report := func(kind string, alg encag.Alg, spec encag.Spec, seed int64, status string) {
		if status != "ok" {
			failures++
			fmt.Printf("chaos %-10s %-8s p=%-4d N=%-2d seed=%-3d %s\n",
				kind, alg, spec.Procs, spec.Nodes, seed, status)
		} else if verbose {
			fmt.Printf("chaos %-10s %-8s p=%-4d N=%-2d seed=%-3d ok\n",
				kind, alg, spec.Procs, spec.Nodes, seed)
		}
	}
	overTCP := encag.WithEngine(encag.EngineTCP)
	for _, spec := range specs {
		tspec := spec
		tspec.RecvTimeout = 10 * time.Second // stalls slow frames down legitimately
		// Plans are armed per operation, so one session serves every
		// transient plan (the mesh must survive them) and one every
		// channel plan (there is no wire state to damage).
		transient, ch := open(tspec, overTCP), open(spec)
		for _, alg := range encag.PaperAlgorithms() {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				// Transient plans are recoverable by definition: the TCP
				// transport must absorb every one and finish byte-exact.
				cases++
				plan := encag.TransientFaultPlan(seed, spec.Procs, 6)
				_, err := transient.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
				status := "ok"
				if err != nil {
					status = fmt.Sprintf("FAIL (transient plan must recover): %v [%v]", err, plan)
				}
				report("transient", alg, spec, seed, status)

				// Random plans include corruption: verified completion or a
				// single structured RankError are the only legal outcomes.
				// Each gets its own mesh: a corrupted sequence field can
				// desync a link's gate without failing the operation that
				// carried it, and the next operation would pay for it.
				cases++
				plan = encag.RandomFaultPlan(seed, spec.Procs, 6)
				tcp := open(spec, overTCP)
				_, err = tcp.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
				tcp.Close()
				report("random-tcp", alg, spec, seed, chaosStatus(err, plan))

				cases++
				plan = encag.RandomFaultPlan(seed+1000, spec.Procs, 4)
				_, err = ch.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
				report("random-chan", alg, spec, seed, chaosStatus(err, plan))
			}
		}
		transient.Close()
		ch.Close()
	}
	return cases, failures
}

// chaosStatus classifies a chaos-run outcome: success and structured
// RankErrors are legal, anything else is a contract violation.
func chaosStatus(err error, plan *encag.FaultPlan) string {
	if err == nil {
		return "ok"
	}
	var re *encag.RankError
	if errors.As(err, &re) {
		return "ok" // failed closed with a structured root cause
	}
	return fmt.Sprintf("FAIL (unstructured error): %v [%v]", err, plan)
}

func mappingName(s encag.Spec) string {
	if s.Mapping == "" {
		return "block"
	}
	return s.Mapping
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
