// Secure aggregation: the encrypted ALL-REDUCE extension, single-job
// and multi-tenant.
//
// Part 1 — one consortium: sixteen parties across four cloud nodes each
// hold a private count vector (e.g. per-category tallies of
// confidential records). Everyone needs the element-wise total, but
// nobody's individual vector may cross a node boundary in the clear.
// The encrypted all-reduce combines vectors inside nodes via shared
// memory and seals every inter-node hop, decrypting only O(lg N)
// ciphertexts per rank.
//
// Part 2 — a service hosting many consortia: three independent tenants
// (say, hospital networks that must never see each other's tallies) run
// their aggregations concurrently in ONE process through a
// serve.Manager, sharing a single crypto worker pool. Each tenant's
// mesh, keys and totals stay its own; the host arbitrates only the
// crypto budget and reports per-tenant metrics.
//
//	go run ./examples/secureagg
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"sync"

	"encag"
	"encag/internal/serve"
)

const (
	parties    = 16
	nodes      = 4
	categories = 8
)

// addU32 is the CombineFunc: element-wise uint32 addition.
func addU32(dst, src []byte) {
	for i := 0; i+4 <= len(dst); i += 4 {
		binary.LittleEndian.PutUint32(dst[i:],
			binary.LittleEndian.Uint32(dst[i:])+binary.LittleEndian.Uint32(src[i:]))
	}
}

// tallies builds each party's private vector for a tenant; offset keeps
// every tenant's data distinct so cross-tenant leakage would be visible
// in the totals.
func tallies(offset int) (data [][]byte, want []uint32) {
	data = make([][]byte, parties)
	want = make([]uint32, categories)
	for r := range data {
		buf := make([]byte, 4*categories)
		for c := 0; c < categories; c++ {
			v := uint32((offset + r*7 + c*13) % 50)
			binary.LittleEndian.PutUint32(buf[4*c:], v)
			want[c] += v
		}
		data[r] = buf
	}
	return data, want
}

func checkTotals(label string, res *encag.ReduceResult, want []uint32) {
	if !res.SecurityOK {
		log.Fatalf("%s: security violations: %v", label, res.Violations)
	}
	for c := 0; c < categories; c++ {
		if got := binary.LittleEndian.Uint32(res.Result[4*c:]); got != want[c] {
			log.Fatalf("%s: category %d: got %d want %d", label, c, got, want[c])
		}
	}
}

func main() {
	// ---- Part 1: one consortium, one session ----
	spec := encag.Spec{Procs: parties, Nodes: nodes}
	data, want := tallies(0)
	sess, err := encag.OpenSession(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Allreduce(context.Background(), data, addU32)
	sess.Close()
	if err != nil {
		log.Fatal(err)
	}
	checkTotals("single", res, want)

	fmt.Println("Element-wise totals, agreed by all parties:")
	for c := 0; c < categories; c++ {
		fmt.Printf("  category %d: %5d (ok)\n", c, binary.LittleEndian.Uint32(res.Result[4*c:]))
	}
	fmt.Printf("\nPer-party GCM work: sealed %d B in %d call(s), opened %d B in %d call(s)\n",
		res.Metrics.Se, res.Metrics.Re, res.Metrics.Sd, res.Metrics.Rd)
	fmt.Println("(naive secure aggregation would open (p-1)*m bytes per party)")

	// ---- Part 2: three consortia in one host over one crypto pool ----
	fmt.Println("\nMulti-tenant: 3 consortia, one host process, one crypto pool")
	m, err := serve.Open(serve.Config{Spec: spec})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	tenants := []string{"north", "south", "coastal"}
	var wg sync.WaitGroup
	for i, id := range tenants {
		i, id := i, id
		wg.Add(1)
		go func() {
			defer wg.Done()
			tdata, twant := tallies(100 * (i + 1))
			for round := 0; round < 3; round++ {
				tres, err := m.Allreduce(context.Background(), id, tdata, addU32)
				if err != nil {
					log.Fatalf("tenant %s: %v", id, err)
				}
				checkTotals(id, tres, twant)
			}
		}()
	}
	wg.Wait()

	snap := m.Snapshot()
	fmt.Printf("host pool: %d workers shared by all tenants (%d tasks dispatched)\n",
		snap.Pool.Size, snap.Pool.Dispatched)
	for _, ts := range snap.Tenants {
		fmt.Printf("  tenant %-8s steps=%d failures=%d sessions=%d p50=%s\n",
			ts.ID, ts.Steps, ts.Failures, ts.SessionsOpened, fmtNS(ts.StepLatency.P50))
	}
	fmt.Println("each consortium saw only its own totals; the host saw only ciphertext")
}

func fmtNS(ns int64) string {
	return fmt.Sprintf("%.2fms", float64(ns)/1e6)
}
