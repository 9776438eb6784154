package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"encag"
	"encag/internal/bench"
)

// cmdExplore answers "which encrypted all-gather should my cluster
// use?": it simulates every algorithm for a given cluster shape,
// mapping, machine profile and message size, prints the ranking with the
// six cost metrics, and shows how far the winner sits from the paper's
// lower bounds.
//
//	encag explore -p 256 -nodes 16 -size 64KB -profile noleland -mapping cyclic
func cmdExplore(args []string) error {
	fs := newFlags("explore")
	shape := specFlags{p: "128", nodes: "8"}
	shape.register(fs, "p", "nodes", "mapping")
	sizeStr := fs.String("size", "16KB", "message size per rank (e.g. 64, 4KB, 2MB)")
	profName := fs.String("profile", "noleland", "machine profile: noleland or bridges2")
	fs.Parse(args)

	size, err := bench.ParseSize(*sizeStr)
	if err != nil {
		return err
	}
	prof, err := encag.ProfileByName(*profName)
	if err != nil {
		return err
	}
	spec, err := shape.spec()
	if err != nil {
		return err
	}

	type row struct {
		name encag.Alg
		res  encag.SimResult
	}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineSim), encag.WithProfile(prof))
	if err != nil {
		return err
	}
	defer s.Close()
	var rows []row
	for _, alg := range append([]encag.Alg{encag.AlgMPI}, encag.PaperAlgorithms()...) {
		res, err := s.Simulate(ctx, alg, size)
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
		rows = append(rows, row{alg, res})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].res.Latency < rows[j].res.Latency })

	fmt.Printf("Cluster: p=%d nodes=%d l=%d mapping=%s profile=%s msg=%s\n\n",
		spec.Procs, spec.Nodes, spec.Procs/spec.Nodes, spec.Mapping, prof.Name, bench.SizeName(size))
	fmt.Printf("%-8s %12s %6s %6s %12s %6s %12s\n", "scheme", "latency", "rc", "re", "se", "rd", "sd")
	for _, r := range rows {
		fmt.Printf("%-8s %12s %6d %6d %12d %6d %12d\n",
			r.name, r.res.Latency.Round(10*time.Nanosecond),
			r.res.Metrics.Rc, r.res.Metrics.Re, r.res.Metrics.Se,
			r.res.Metrics.Rd, r.res.Metrics.Sd)
	}

	lb := encag.LowerBounds(spec.Procs, spec.Nodes, size)
	fmt.Printf("\nLower bounds (Table I): rc>=%d sc>=%d re>=%d se>=%d rd>=%d sd>=%d\n",
		lb.Rc, lb.Sc, lb.Re, lb.Se, lb.Rd, lb.Sd)

	best := rows[0]
	if best.name == "mpi" && len(rows) > 1 {
		enc := rows[1]
		fmt.Printf("\nRecommendation: %s — fastest encrypted scheme, %.1f%% over unencrypted MPI\n",
			enc.name, 100*(enc.res.Latency.Seconds()-best.res.Latency.Seconds())/best.res.Latency.Seconds())
	} else {
		fmt.Printf("\nRecommendation: %s — beats unencrypted MPI here\n", best.name)
	}
	return nil
}
