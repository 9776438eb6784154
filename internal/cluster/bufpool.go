package cluster

import "sync"

// Ciphertext is transient in the paper's cost model: a block is sealed,
// sent and opened, and only the gathered plaintext outlives the
// operation. The runtime gives ciphertext the same lifetime. Three kinds
// of buffer come from one process-wide free list, and nothing else does:
// the blobs Proc.Encrypt seals, the payloads of encrypted chunks a TCP
// connection reader receives whole, and the blobs of the streams it
// receives for a relay (a stream opened in place keeps no ciphertext).
// Each operation records the buffers it drew (opBufs) and hands them
// back once nothing can touch them again.
// The list is process-wide so that the tenants of one host share its
// cap, as they share seal.SharedPool.
const (
	// bufQuantum is the capacity granule. Rounding up to it, not to a
	// power of two, keeps a 256 KiB blob in a 260 KiB buffer instead of
	// a 512 KiB one.
	bufQuantum = 4 << 10
	// bufIdleCap bounds the bytes the free list keeps idle; past it,
	// returned buffers are left to the collector.
	bufIdleCap = 4 << 20
)

// bufPool is a free list of byte buffers keyed by capacity in quanta. It
// never blocks: an empty class falls back to make, and a full list drops
// what it is handed.
type bufPool struct {
	mu   sync.Mutex
	free map[int][][]byte // quanta -> idle buffers of exactly that capacity
	idle int              // bytes held in free
}

// cipherBufs is the one free list every session draws ciphertext from.
var cipherBufs bufPool

// get returns an n-byte buffer whose capacity is n rounded up to the
// quantum. Its contents are stale: callers overwrite all n bytes.
func (p *bufPool) get(n int) []byte {
	q := (n + bufQuantum - 1) / bufQuantum
	if q == 0 {
		return []byte{}
	}
	p.mu.Lock()
	if l := p.free[q]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[q] = l[:len(l)-1]
		p.idle -= cap(b)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n, q*bufQuantum)
}

// put returns a buffer get handed out. Past bufIdleCap it first drops
// idle buffers of other sizes, since the size just returned is the one
// in use: a list full of sizes no longer asked for would otherwise
// refuse it, and every later get of it would make a fresh buffer. If
// that does not make room, b itself is dropped.
func (p *bufPool) put(b []byte) {
	c, q := cap(b), cap(b)/bufQuantum
	if c == 0 {
		return
	}
	p.mu.Lock()
	for other, l := range p.free {
		if p.idle+c <= bufIdleCap {
			break
		}
		for other != q && len(l) > 0 && p.idle+c > bufIdleCap {
			p.idle -= cap(l[len(l)-1])
			l[len(l)-1] = nil
			l = l[:len(l)-1]
		}
		p.free[other] = l
	}
	if p.idle+c <= bufIdleCap {
		if p.free == nil {
			p.free = make(map[int][][]byte)
		}
		p.free[q] = append(p.free[q], b[:c])
		p.idle += c
	}
	p.mu.Unlock()
}

// idleBytes returns the bytes the free list holds.
func (p *bufPool) idleBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.idle
}

// opBufs is the ciphertext memory of one operation and the reference
// count that decides when it is safe to reuse. The running operation
// holds one reference and every queued send job one more, released once
// the send loop has written or dropped the job. The last release hands
// the buffers back only if the operation succeeded: a failed, cancelled
// or timed-out operation may still have a buffer in a place nothing
// tracks, so its memory is left to the collector.
//
// This is also what keeps the reuse sound. A sealed blob's slot briefly
// holds gathered plaintext before it is encrypted in place, and a
// received payload is written by the connection reader; once the count
// is zero no sender can still be writing or reading either, and bytes
// past a buffer's length are never sent. A relayed stream's blob is the
// same: the reader fills it, the relay's send job reads it.
//
// The last release also returns the operation's rank slot (see
// rankSlot). A connection reader that found the operation just before
// its deregistration can still hand it a frame after the count reached
// zero; that buffer is kept on a list nobody returns, and the collector
// takes it.
type opBufs struct {
	mu   sync.Mutex
	held [][]byte
	home *[][]byte // the rank slot's list, which held came from and goes back to
	refs int
	ok   bool
}

// keep records a buffer drawn from cipherBufs for this operation.
func (b *opBufs) keep(buf []byte) {
	b.mu.Lock()
	b.held = append(b.held, buf)
	b.mu.Unlock()
}

// hold takes one more reference, for a queued send job.
func (b *opBufs) hold() {
	b.mu.Lock()
	b.refs++
	b.mu.Unlock()
}

// release drops one reference and reports whether it was the last. The
// last one returns the buffers when the operation succeeded.
func (b *opBufs) release() (last bool) {
	b.mu.Lock()
	if b.refs--; b.refs != 0 {
		b.mu.Unlock()
		return false
	}
	held := b.held
	b.held = nil
	ok := b.ok
	b.mu.Unlock()
	if ok {
		for _, buf := range held {
			cipherBufs.put(buf)
		}
	}
	// The slot is retaken only after this release; a straggler's keep
	// from now on appends to a list of its own.
	clear(held)
	*b.home = held[:0]
	return true
}

// finish drops the running operation's own reference, recording whether
// it succeeded, and reports whether it was the last.
func (b *opBufs) finish(ok bool) (last bool) {
	b.mu.Lock()
	b.ok = ok
	b.mu.Unlock()
	return b.release()
}
