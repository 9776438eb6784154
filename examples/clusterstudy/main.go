// Cluster study: repeat the paper's evaluation on your own cluster.
//
// This example defines a custom machine profile (edit the fields to
// match your hardware: NIC speed, per-core injection rate, AES-GCM
// throughput, memory bandwidth), then sweeps message sizes to find which
// encrypted all-gather wins where — the same methodology as the paper's
// Tables III-VI, applied to a hypothetical 25 Gb/s Ethernet cloud
// cluster with slower crypto.
//
//	go run ./examples/clusterstudy
package main

import (
	"context"
	"fmt"
	"log"

	"encag"
)

func main() {
	// A modest cloud cluster: 25 Gb/s NICs, one core drives ~2.8 GB/s,
	// AES-GCM at ~3.5 GB/s — encryption and network are much closer in
	// speed than on the paper's InfiniBand machines.
	cloud := encag.Profile{
		Name:         "cloud-25g",
		AlphaInter:   12e-6, // Ethernet + virtualisation latency
		AlphaIntra:   0.6e-6,
		NICTx:        3.1e9, // 25 Gb/s
		NICRx:        3.1e9,
		CoreBW:       2.8e9,
		MemPool:      24e9,
		MemFlowBW:    4e9,
		AlphaEnc:     0.3e-6,
		AlphaDec:     0.3e-6,
		EncBW:        3.5e9,
		DecBW:        1.6e9,
		AlphaCopy:    0.2e-6,
		CopyBW:       3e9,
		AlphaBarrier: 0.5e-6,
	}

	spec := encag.Spec{Procs: 64, Nodes: 8}
	ctx := context.Background()
	s, err := encag.OpenSession(ctx, spec, encag.WithEngine(encag.EngineSim), encag.WithProfile(cloud))
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	sizes := []int64{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20}
	algs := append([]encag.Alg{encag.AlgMPI}, encag.PaperAlgorithms()...)

	fmt.Printf("Cluster study: p=%d nodes=%d profile=%s\n\n", spec.Procs, spec.Nodes, cloud.Name)
	fmt.Printf("%-8s", "size")
	for _, a := range algs {
		fmt.Printf(" %10s", a)
	}
	fmt.Printf(" %10s\n", "winner")

	for _, m := range sizes {
		fmt.Printf("%-8s", sizeName(m))
		bestAlg, bestLat := encag.Alg(""), 0.0
		for _, a := range algs {
			res, err := s.Simulate(ctx, a, m)
			if err != nil {
				log.Fatalf("%s @%d: %v", a, m, err)
			}
			lat := res.Latency.Seconds()
			fmt.Printf(" %9.1fu", lat*1e6)
			if a != "mpi" && (bestAlg == "" || lat < bestLat) {
				bestAlg, bestLat = a, lat
			}
		}
		fmt.Printf(" %10s\n", bestAlg)
	}

	lb := encag.LowerBounds(spec.Procs, spec.Nodes, 16<<10)
	fmt.Printf("\nLower bounds at 16KB: %v\n", lb)
	fmt.Println("\nEdit the profile fields above to model your own cluster;")
	fmt.Println("the crossover points shift with the encryption/network speed ratio.")
}

func sizeName(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
