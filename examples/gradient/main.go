// Gradient aggregation: the paper's motivating workload class — an HPC
// application processing sensitive data on shared cloud nodes.
//
// Thirty-two workers across four nodes each hold a private gradient
// shard (e.g. trained on confidential patient data). Every worker needs
// every shard to form the global average, but the cloud network between
// nodes is untrusted. We run the encrypted all-gather with several of
// the paper's algorithms, verify every worker converges to the same
// global gradient, and compare the cryptographic work each algorithm
// performed.
//
//	go run ./examples/gradient
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"

	"encag"
)

const (
	workers = 32
	nodes   = 4
	dim     = 1024 // gradient shard dimension per worker
)

func main() {
	spec := encag.Spec{Procs: workers, Nodes: nodes}

	// Each worker's private shard: a deterministic pseudo-random vector.
	shards := make([][]float64, workers)
	payloads := make([][]byte, workers)
	for w := range shards {
		rng := rand.New(rand.NewSource(int64(w) + 1))
		shards[w] = make([]float64, dim)
		for i := range shards[w] {
			shards[w][i] = rng.NormFloat64()
		}
		payloads[w] = encodeVec(shards[w])
	}

	// Reference: the average every worker must arrive at.
	want := make([]float64, dim)
	for _, s := range shards {
		for i, v := range s {
			want[i] += v / workers
		}
	}

	ctx := context.Background()
	sess, err := encag.OpenSession(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	for _, alg := range []encag.Alg{encag.AlgNaive, encag.AlgORD, encag.AlgCRing, encag.AlgHS1, encag.AlgHS2, encag.AlgAuto} {
		res, err := sess.Allgather(ctx, alg, payloads)
		if err != nil {
			log.Fatalf("%s: %v", alg, err)
		}
		if !res.SecurityOK {
			log.Fatalf("%s leaked plaintext across nodes: %v", alg, res.Violations)
		}
		// Every worker independently averages what it gathered.
		for w := 0; w < workers; w++ {
			avg := make([]float64, dim)
			for origin := 0; origin < workers; origin++ {
				vec := decodeVec(res.Gathered[w][origin])
				for i, v := range vec {
					avg[i] += v / workers
				}
			}
			for i := range avg {
				if math.Abs(avg[i]-want[i]) > 1e-12 {
					log.Fatalf("%s: worker %d disagrees at coordinate %d", alg, w, i)
				}
			}
		}
		fmt.Printf("%-7s all %d workers agree on the global gradient; "+
			"GCM work per worker: sealed %6d B in %d call(s), opened %6d B in %d call(s)\n",
			alg, workers, res.Metrics.Se, res.Metrics.Re, res.Metrics.Sd, res.Metrics.Rd)
	}

	fmt.Println("\nNote how the concurrent and hierarchical schemes open only")
	fmt.Println("(N-1)*m bytes per worker while naive opens (p-1)*m — the lower")
	fmt.Println("bound vs an l-times overshoot (paper, Table II).")
}

func encodeVec(v []float64) []byte {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return buf
}

func decodeVec(buf []byte) []float64 {
	v := make([]float64, len(buf)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return v
}
