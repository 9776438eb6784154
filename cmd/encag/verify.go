package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"encag"
	"encag/internal/bench"
)

// verifyTally counts the sweep's cases and prints the ones worth a line.
type verifyTally struct {
	cases, failures int
	verbose         bool
}

// report counts one case and says whether it passed; status is "ok",
// optionally followed by detail, or says what went wrong. Failures are
// always printed.
func (t *verifyTally) report(status, caseFormat string, caseArgs ...any) (ok bool) {
	t.cases++
	ok = strings.HasPrefix(status, "ok")
	if !ok {
		t.failures++
	}
	if !ok || t.verbose {
		fmt.Printf(caseFormat+" %s\n", append(caseArgs, status)...)
	}
	return ok
}

// cmdVerify runs the full correctness and security sweep on the real
// execution engine: every encrypted algorithm, across a matrix of
// process counts, node counts, mappings and message sizes, with real
// AES-GCM over real payloads. It checks that
//
//   - every rank ends with every rank's plaintext block, byte-exact;
//   - no plaintext ever crosses a node boundary (the per-send check);
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
func cmdVerify(args []string) error {
	fs := newFlags("verify")
	sizeList := fs.String("sizes", "1,17,256,4096", "comma-separated message sizes in bytes")
	verbose := fs.Bool("v", false, "print every case")
	overTCP := fs.Bool("tcp", false, "also run each algorithm over loopback TCP with wire sniffing")
	var crypto specFlags
	crypto.register(fs, "crypto-workers", "segment-size")
	faults := fs.Bool("faults", false, "also run the fault-injection chaos sweep (see -fault-seeds)")
	faultSeeds := fs.Int("fault-seeds", 3, "deterministic seeds per plan family in the chaos sweep")
	fs.Parse(args)

	sizes, err := parseList(*sizeList, bench.ParseSize)
	if err != nil {
		return err
	}
	segSize, err := crypto.segmentSize()
	if err != nil {
		return err
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
		specs[i].SegmentSize = segSize
	}
	pool, closePool := crypto.cryptoPool()
	defer closePool()
	withPool := encag.WithCryptoPool(pool)

	ctx := context.Background()
	start := time.Now()
	tally := &verifyTally{verbose: *verbose}
	for _, spec := range specs {
		s, err := encag.OpenSession(ctx, spec, withPool)
		if err != nil {
			return err
		}
		mapping := spec.Mapping
		if mapping == "" {
			mapping = "block"
		}
		for _, alg := range encag.PaperAlgorithms() {
			for _, m := range sizes {
				res, err := s.Run(ctx, alg, m)
				var status string
				switch {
				case err != nil:
					status = "FAIL: " + err.Error()
				case !res.SecurityOK:
					status = fmt.Sprintf("INSECURE: %v", res.Violations)
				default:
					status = fmt.Sprintf("ok (%d inter msgs, %v)", res.InterMessages, res.Elapsed.Round(time.Millisecond))
				}
				tally.report(status, "%-8s p=%-4d N=%-2d %-7s m=%-8d", alg, spec.Procs, spec.Nodes, mapping, m)
			}
		}
		s.Close()
	}
	if *overTCP {
		for _, spec := range specs[:6] { // keep the socket matrix modest
			if err := verifyWire(ctx, spec, withPool, tally); err != nil {
				return err
			}
		}
	}
	if *faults {
		for _, spec := range []encag.Spec{
			{Procs: 4, Nodes: 2, RecvTimeout: 2 * time.Second},
			{Procs: 8, Nodes: 4, RecvTimeout: 2 * time.Second},
		} {
			if err := verifyChaos(ctx, spec, *faultSeeds, tally); err != nil {
				return err
			}
		}
	}

	fmt.Printf("\n%d cases, %d failures in %v\n", tally.cases, tally.failures, time.Since(start).Round(time.Millisecond))
	if tally.failures > 0 {
		return fmt.Errorf("verify: %d of %d cases failed", tally.failures, tally.cases)
	}
	return nil
}

// verifyWire runs every paper algorithm over loopback TCP on one mesh
// and checks the captured inter-node bytes for plaintext.
func verifyWire(ctx context.Context, spec encag.Spec, withPool encag.Option, tally *verifyTally) error {
	overTCP := encag.WithEngine(encag.EngineTCP)
	s, err := encag.OpenSession(ctx, spec, overTCP, withPool)
	if err != nil {
		return err
	}
	defer func() { s.Close() }()
	var seen int64 // the wire capture is cumulative over the session
	for _, alg := range encag.PaperAlgorithms() {
		res, err := s.Run(ctx, alg, 64)
		wire := s.Wire().Bytes
		var status string
		switch {
		case err != nil:
			status = "FAIL: " + err.Error()
		case !res.SecurityOK:
			status = "INSECURE (audit)"
		case !s.WireClean(64):
			status = "INSECURE (plaintext on the wire)"
		default:
			status = fmt.Sprintf("ok (%d wire bytes, all ciphertext)", wire-seen)
		}
		seen = wire
		if !tally.report(status, "tcp %-8s p=%-4d N=%-2d", alg, spec.Procs, spec.Nodes) {
			// A leak stays in the capture and a failure may have broken
			// the mesh: judge the next algorithm on a new one.
			s.Close()
			if s, err = encag.OpenSession(ctx, spec, overTCP, withPool); err != nil {
				return err
			}
			seen = 0
		}
	}
	return nil
}

// verifyChaos exercises every paper algorithm under deterministic fault
// plans on both the TCP and the channel transport of one cluster shape,
// enforcing the fault-tolerance contract.
func verifyChaos(ctx context.Context, spec encag.Spec, seeds int, tally *verifyTally) error {
	overTCP := encag.WithEngine(encag.EngineTCP)
	tspec := spec
	tspec.RecvTimeout = 10 * time.Second // stalls slow frames down legitimately
	// Plans are armed per operation, so one session serves every
	// transient plan (the mesh must survive them) and one every
	// channel plan (there is no wire state to damage).
	transient, err := encag.OpenSession(ctx, tspec, overTCP)
	if err != nil {
		return err
	}
	defer transient.Close()
	ch, err := encag.OpenSession(ctx, spec)
	if err != nil {
		return err
	}
	defer ch.Close()
	const caseFormat = "chaos %-10s %-8s p=%-4d N=%-2d seed=%-3d"
	for _, alg := range encag.PaperAlgorithms() {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			// Transient plans are recoverable by definition: the TCP
			// transport must absorb every one and finish byte-exact.
			plan := encag.TransientFaultPlan(seed, spec.Procs, 6)
			_, err := transient.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
			status := "ok"
			if err != nil {
				status = fmt.Sprintf("FAIL (transient plan must recover): %v [%v]", err, plan)
			}
			tally.report(status, caseFormat, "transient", alg, spec.Procs, spec.Nodes, seed)

			// Random plans include corruption: verified completion or a
			// single structured RankError are the only legal outcomes.
			// Each gets its own mesh: a corrupted sequence field can
			// desync a link's gate, which breaks the session for good
			// even when the operation that carried it completed.
			plan = encag.RandomFaultPlan(seed, spec.Procs, 6)
			tcp, err := encag.OpenSession(ctx, spec, overTCP)
			if err != nil {
				return err
			}
			_, err = tcp.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
			tcp.Close()
			tally.report(chaosStatus(err, plan), caseFormat, "random-tcp", alg, spec.Procs, spec.Nodes, seed)

			plan = encag.RandomFaultPlan(seed+1000, spec.Procs, 4)
			_, err = ch.Run(ctx, alg, 2048, encag.WithFaultPlan(plan))
			tally.report(chaosStatus(err, plan), caseFormat, "random-chan", alg, spec.Procs, spec.Nodes, seed)
		}
	}
	return nil
}

// chaosStatus classifies a chaos-run outcome: success and structured
// RankErrors are legal, anything else is a contract violation.
func chaosStatus(err error, plan *encag.FaultPlan) string {
	var re *encag.RankError
	if err == nil || errors.As(err, &re) {
		return "ok" // completed, or failed closed with a structured root cause
	}
	return fmt.Sprintf("FAIL (unstructured error): %v [%v]", err, plan)
}
