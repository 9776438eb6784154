package seal

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a bounded crypto worker pool. Segmented seal/open operations
// from any number of Sealers (and rank goroutines) share its workers, so
// total crypto parallelism stays capped at the pool size no matter how
// many collectives run concurrently. Workers start on demand and exit
// after an idle period, so an unused pool costs nothing. A session's
// synthetic-payload bookends run on the same pool: each rank's test
// pattern fill and the end-of-run check of each distinct gathered
// buffer, when larger than one segment (DefaultSegmentSize).
//
// The caller of Run always participates in the work itself: progress
// never depends on a worker being free, so a saturated pool degrades to
// serial execution instead of blocking. The same property makes Close
// safe at any time: a closed pool refuses new offers, so in-flight Run
// calls simply finish their remaining indices on the calling goroutine —
// nothing blocks, nothing panics, and a Sealer torn down mid-operation
// cannot strand tasks inside a pool shared with other Sealers.
type Pool struct {
	size  int
	tasks chan *runJob
	quit  chan struct{} // closed by Close; idle workers exit on it

	busy       atomic.Int64 // workers currently executing a task
	dispatched atomic.Int64 // tasks accepted by offer
	saturated  atomic.Int64 // offers refused at the worker cap
	closed     atomic.Bool

	mu      sync.Mutex
	idle    sync.Cond // signalled whenever workers drops; Close waits on it
	workers int
}

// poolIdleTimeout is how long an idle worker waits for more work before
// exiting.
const poolIdleTimeout = time.Second

// NewPool creates a pool with the given worker cap; size <= 0 selects
// GOMAXPROCS, matching the cores available to the process.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size, tasks: make(chan *runJob), quit: make(chan struct{})}
	p.idle.L = &p.mu
	return p
}

// Size returns the worker cap.
func (p *Pool) Size() int { return p.size }

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool { return p.closed.Load() }

// Close drains the pool: new offers are refused (callers degrade to
// serial execution, exactly as on saturation), idle workers exit
// immediately, busy workers exit after finishing their current task, and
// Close returns once every worker goroutine has terminated. In-flight
// Run calls complete normally — their remaining indices run on the
// calling goroutine. Idempotent and safe to call concurrently with Run.
// Closing the process-wide SharedPool is a programming error (it cannot
// be re-opened); Close is meant for pools owned by a host that is
// shutting down.
func (p *Pool) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		p.mu.Lock()
		for p.workers > 0 {
			p.idle.Wait()
		}
		p.mu.Unlock()
		return
	}
	close(p.quit)
	p.mu.Lock()
	for p.workers > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// PoolStats is a Pool's instantaneous utilization view plus its
// cumulative dispatch counters.
type PoolStats struct {
	// Size is the worker cap.
	Size int
	// Workers is how many worker goroutines are currently alive (busy or
	// idling toward their timeout).
	Workers int
	// Busy is how many workers are executing a task right now.
	Busy int
	// Dispatched counts tasks accepted by the pool over its lifetime.
	Dispatched int64
	// Saturated counts offers refused at the worker cap — each one is a
	// caller that degraded to serial execution instead of blocking.
	Saturated int64
}

// Stats returns the pool's current utilization and cumulative counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	w := p.workers
	p.mu.Unlock()
	return PoolStats{
		Size:       p.size,
		Workers:    w,
		Busy:       int(p.busy.Load()),
		Dispatched: p.dispatched.Load(),
		Saturated:  p.saturated.Load(),
	}
}

var (
	sharedPoolOnce sync.Once
	sharedPoolVal  *Pool
)

// SharedPool returns the process-wide default pool, sized by GOMAXPROCS.
func SharedPool() *Pool {
	sharedPoolOnce.Do(func() { sharedPoolVal = NewPool(0) })
	return sharedPoolVal
}

// offer hands j to an idle worker, starting one if the pool is under its
// cap. It reports false when the pool is saturated or closed; the caller
// then absorbs the work through its own Run loop.
func (p *Pool) offer(j *runJob) bool {
	if p.closed.Load() {
		return false
	}
	select {
	case p.tasks <- j:
		p.dispatched.Add(1)
		return true
	default:
	}
	p.mu.Lock()
	if p.workers >= p.size || p.closed.Load() {
		p.mu.Unlock()
		// One more non-blocking attempt in case a worker just freed up.
		select {
		case p.tasks <- j:
			p.dispatched.Add(1)
			return true
		default:
			p.saturated.Add(1)
			return false
		}
	}
	p.workers++
	p.mu.Unlock()
	p.dispatched.Add(1)
	go p.work(j)
	return true
}

func (p *Pool) work(j *runJob) {
	timer := time.NewTimer(poolIdleTimeout)
	defer timer.Stop()
	exit := func() {
		p.mu.Lock()
		p.workers--
		p.mu.Unlock()
		p.idle.Broadcast()
	}
	for {
		p.busy.Add(1)
		j.loop()
		j.wg.Done() // the last touch: Run may recycle j from here on
		p.busy.Add(-1)
		if p.closed.Load() {
			exit()
			return
		}
		if !timer.Stop() {
			<-timer.C
		}
		timer.Reset(poolIdleTimeout)
		select {
		case j = <-p.tasks:
		case <-p.quit:
			exit()
			return
		case <-timer.C:
			exit()
			return
		}
	}
}

// Run executes fn(0) .. fn(n-1), distributing the indices over the
// calling goroutine plus up to Size pool workers, and returns when all
// have completed. Order is unspecified; fn must be safe for concurrent
// invocation on distinct indices.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	j := runJobs.Get()
	j.n, j.fn = n, fn
	j.next.Store(0)
	for h := 0; h < min(n-1, p.size); h++ {
		j.wg.Add(1)
		if !p.offer(j) {
			j.wg.Done()
			break
		}
	}
	j.loop()
	j.wg.Wait()
	j.fn = nil
	runJobs.Put(j)
}

// runJob is one Run call's shared state. Helpers are handed the record
// itself, and records are pooled, so dispatching allocates nothing.
type runJob struct {
	n    int
	fn   func(int)
	next atomic.Int64 // the next index to claim
	wg   sync.WaitGroup
}

var runJobs = NewRecycler(func() *runJob { return new(runJob) })

// loop claims and runs indices until none are left.
func (j *runJob) loop() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
	}
}

// scratchBufs recycles scratch buffers for the segmented hot path (the
// per-segment AAD assemblies), so steady-state sealing allocates only
// the output blob. They are small: the bounded list pins a few KB.
var scratchBufs = NewRecycler(func() *[]byte { return new([]byte) })

// getBuf returns a scratch buffer of length n (contents undefined).
func getBuf(n int) *[]byte {
	bp := scratchBufs.Get()
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// putBuf returns a scratch buffer to the free list.
func putBuf(bp *[]byte) { scratchBufs.Put(bp) }
