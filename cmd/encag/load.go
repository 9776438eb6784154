package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"encag/internal/bench"
	"encag/internal/metrics"
	"encag/internal/serve"
)

type tenantTally struct {
	ok, rejected, failed int64
	lat                  *metrics.Histogram
}

type report struct {
	mu      sync.Mutex
	tenants map[string]*tenantTally
}

func (r *report) tally(id string) *tenantTally {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[id]
	if t == nil {
		t = &tenantTally{lat: metrics.NewHistogram()}
		r.tenants[id] = t
	}
	return t
}

// cmdLoad drives an `encag serve` host the way a fleet of clients
// would: cohorts of tenants issuing mixed all-gather/all-reduce steps at
// a configurable arrival rate, over a size distribution, with optional
// fault seeds — then reports client-observed per-tenant latency
// quantiles next to the server's own admission/reap counters.
//
//	encag serve -tenants 16 -addr 127.0.0.1:9191 &
//	encag load -addr 127.0.0.1:9191 -tenants 16 -clients 64 \
//	    -rate 200 -mix 0.75 -sizes 1KB,16KB,64KB -duration 30s
//
// Closed-loop mode (-rate 0) lets each client issue its next step as
// soon as the previous one answers — the shape that saturates admission
// control and surfaces 429 backpressure rather than hangs.
func cmdLoad(args []string) error {
	fs := newFlags("load")
	addr := fs.String("addr", "127.0.0.1:9191", "encag serve host address")
	tenants := fs.Int("tenants", 8, "tenant cohort size (steps spread over t0..tN-1; at most serve's -tenants)")
	clients := fs.Int("clients", 32, "concurrent simulated clients")
	rate := fs.Float64("rate", 0, "target arrivals/sec across all clients (0 = closed loop)")
	mix := fs.Float64("mix", 1.0, "fraction of steps that are all-gather (rest all-reduce)")
	sizesStr := fs.String("sizes", "4KB,16KB,64KB", "comma-separated step size distribution (uniform pick)")
	algName := fs.String("alg", "o-ring", "all-gather algorithm name sent to the host")
	faultRate := fs.Float64("faults", 0, "fraction of steps carrying a deterministic fault seed (the host must run serve -chaos)")
	seed := fs.Int64("seed", 1, "RNG seed (fault seeds and pick order derive from it)")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	fs.Parse(args)

	sizes, err := parseList(*sizesStr, bench.ParseSize)
	if err != nil {
		return err
	}
	if len(sizes) == 0 {
		return fmt.Errorf("empty -sizes")
	}
	base := "http://" + *addr

	// Arrival pacing: a shared ticket channel fed at -rate; closed loop
	// hands out tickets freely.
	var tickets chan struct{}
	if *rate > 0 {
		tickets = make(chan struct{})
		go func() {
			t := time.NewTicker(time.Duration(float64(time.Second) / *rate))
			defer t.Stop()
			for range t.C {
				select {
				case tickets <- struct{}{}:
				default: // all clients busy; shed the arrival
				}
			}
		}()
	}

	ctx, stop := runContext(*duration)
	defer stop()
	rep := &report{tenants: make(map[string]*tenantTally)}
	client := &http.Client{Timeout: 60 * time.Second}

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		rng := rand.New(rand.NewSource(*seed + int64(c)*7919))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if tickets != nil {
					select {
					case <-tickets:
					case <-ctx.Done():
						return
					}
				}
				id := fmt.Sprintf("t%d", rng.Intn(*tenants))
				q := url.Values{}
				q.Set("tenant", id)
				q.Set("size", fmt.Sprint(sizes[rng.Intn(len(sizes))]))
				if rng.Float64() < *mix {
					q.Set("op", "allgather")
					q.Set("alg", *algName)
				} else {
					q.Set("op", "allreduce")
				}
				if *faultRate > 0 && rng.Float64() < *faultRate {
					q.Set("faultseed", fmt.Sprint(1+rng.Int63n(1<<30)))
				}
				tl := rep.tally(id)
				start := time.Now()
				resp, err := client.Get(base + "/v1/step?" + q.Encode())
				if err != nil {
					tl.failed++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				tl.lat.Observe(time.Since(start).Nanoseconds())
				switch {
				case resp.StatusCode == http.StatusOK:
					tl.ok++
				case resp.StatusCode == http.StatusTooManyRequests:
					tl.rejected++
				default:
					tl.failed++
				}
			}
		}()
	}
	wg.Wait() // on SIGINT the clients exit at their next check

	printReport(rep)
	scrapeHost(base)
	return nil
}

// printReport renders the client-side view: per-tenant quantiles and
// outcome counts. Counters are read after every worker exited, so no
// lock is needed beyond the map's.
func printReport(rep *report) {
	ids := make([]string, 0, len(rep.tenants))
	for id := range rep.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var ok, rejected, failed int64
	fmt.Printf("%-8s %8s %8s %8s %10s %10s %10s\n",
		"tenant", "ok", "reject", "fail", "p50", "p95", "p99")
	for _, id := range ids {
		tl := rep.tenants[id]
		s := tl.lat.Snapshot()
		fmt.Printf("%-8s %8d %8d %8d %10v %10v %10v\n",
			id, tl.ok, tl.rejected, tl.failed,
			time.Duration(s.P50).Round(time.Microsecond),
			time.Duration(s.P95).Round(time.Microsecond),
			time.Duration(s.P99).Round(time.Microsecond))
		ok += tl.ok
		rejected += tl.rejected
		failed += tl.failed
	}
	fmt.Printf("total: ok=%d rejected=%d failed=%d\n", ok, rejected, failed)
}

// scrapeHost asks the server for its own rollup, so the client-side
// numbers sit next to admission/reap truth.
func scrapeHost(base string) {
	resp, err := http.Get(base + "/v1/tenants")
	if err != nil {
		fmt.Fprintf(os.Stderr, "host rollup unavailable: %v\n", err)
		return
	}
	defer resp.Body.Close()
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		fmt.Fprintf(os.Stderr, "host rollup unreadable: %v\n", err)
		return
	}
	fmt.Printf("host: known=%d resident=%d admitted=%d rejected=%v reaps=%v rekeys=%d\n",
		snap.Known, snap.Resident, snap.Admitted, snap.Rejected, snap.Reaps, snap.Rekeys)
}
