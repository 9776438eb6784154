package main

import (
	"fmt"

	"encag"
	"encag/internal/serve"
)

// cmdServe hosts many tenant Sessions in one process over a shared
// crypto pool — the multi-tenant collective service. Tenants are
// pre-registered t0..t{N-1} and admit lazily; the HTTP surface drives
// and observes them:
//
//	encag serve -tenants 16 -engine chan -addr 127.0.0.1:9191
//	curl 'http://127.0.0.1:9191/v1/step?tenant=t3&op=allgather&size=16384'
//	curl http://127.0.0.1:9191/v1/tenants     # per-tenant rollup JSON
//	curl http://127.0.0.1:9191/metrics        # merged, tenant-labelled
//	go tool pprof http://127.0.0.1:9191/debug/pprof/profile?seconds=5
//
// Admission control (-maxsteps/-maxqueue/-queue-timeout) answers
// saturation with HTTP 429 and a structured reason instead of queueing
// unboundedly; idle tenants are reaped after -idle-ttl and readmitted
// transparently on their next step; -rekey-every rotates resident
// tenants' AES keys in the background. `encag load` is the matching
// client.
func cmdServe(args []string) error {
	fs := newFlags("serve")
	tenants := fs.Int("tenants", 8, "tenant sessions to pre-register (t0..tN-1)")
	// -p and -nodes shape every tenant's session; -crypto-workers sizes
	// the pool they all share.
	shape := specFlags{p: "4", nodes: "2"}
	shape.register(fs, "p", "nodes", "crypto-workers")
	engineStr := fs.String("engine", "chan", "execution engine per tenant: chan or tcp")
	capacity := fs.Int("capacity", 0, "max resident tenant sessions (0 = unlimited; beyond it the LRU idle tenant is evicted)")
	idleTTL := fs.Duration("idle-ttl", 0, "reap tenant sessions idle this long (0 = never)")
	rekeyEvery := fs.Duration("rekey-every", 0, "rotate resident tenants' AES keys this often, busy or idle (0 = never)")
	sweepEvery := fs.Duration("sweep-every", 0, "janitor period (0 = default 250ms)")
	maxSteps := fs.Int("maxsteps", 0, "concurrent collectives across all tenants (0 = derive from pool size)")
	maxQueue := fs.Int("maxqueue", 0, "callers allowed to wait for a step slot (0 = 4x maxsteps)")
	queueTimeout := fs.Duration("queue-timeout", 0, "max wait for a step slot (0 = 2s)")
	pipeline := fs.Bool("pipeline", false, "stream sealed segments onto the wire inside each collective (tcp engine only)")
	warm := fs.Bool("warm", false, "open every registered tenant's session at startup")
	addr := fs.String("addr", "", "HTTP listen address (empty = ephemeral loopback port)")
	duration := fs.Duration("duration", 0, "how long to serve (0 = until SIGINT)")
	chaos := fs.Bool("chaos", false, "let /v1/step's faultseed parameter arm fault plans on tenant sessions (off: 403)")
	fs.Parse(args)

	engine, err := realEngine(*engineStr)
	if err != nil {
		return err
	}
	spec, err := shape.spec()
	if err != nil {
		return err
	}
	pool, closePool := shape.cryptoPool()
	defer closePool()
	cfg := serve.Config{
		Spec:           spec,
		SessionOptions: []encag.Option{encag.WithEngine(engine), encag.WithPipelining(*pipeline)},
		Pool:           pool,
		Capacity:       *capacity,
		IdleTTL:        *idleTTL,
		RekeyEvery:     *rekeyEvery,
		SweepEvery:     *sweepEvery,
		MaxSteps:       *maxSteps,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		Chaos:          *chaos,
	}
	m, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	defer m.Close()

	ctx, stop := runContext(*duration)
	defer stop()

	for i := 0; i < *tenants; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := m.Register(id, cfg.Spec); err != nil {
			return err
		}
		if *warm {
			if err := m.Warm(ctx, id); err != nil {
				return fmt.Errorf("warm %s: %w", id, err)
			}
		}
	}

	srv, err := serve.NewServer(m, *addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("encag-serve: %d tenants (%s, p=%d nodes=%d), pool=%d workers, resident=%d\n",
		*tenants, engine, spec.Procs, spec.Nodes, m.Pool().Size(), m.Resident())
	fmt.Printf("serving at http://%s (/v1/step, /v1/tenants, /metrics, /debug/vars, /debug/pprof/)\n", srv.Addr())

	<-ctx.Done()

	snap := m.Snapshot()
	fmt.Printf("\nshutdown: %d tenants known, %d resident, %d steps admitted\n",
		snap.Known, snap.Resident, snap.Admitted)
	fmt.Printf("rejections: %v\nreaps: %v  rekeys=%d\n", snap.Rejected, snap.Reaps, snap.Rekeys)
	fmt.Printf("pool: size=%d dispatched=%d saturated=%d\n",
		snap.Pool.Size, snap.Pool.Dispatched, snap.Pool.Saturated)
	return nil
}
