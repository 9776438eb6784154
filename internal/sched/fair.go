package sched

import "sync"

// FairQueue is a multi-stream FIFO with round-robin service: items are
// pushed onto per-stream queues (one stream per in-flight operation)
// and popped one stream at a time in rotation, so a long burst from one
// operation cannot starve the others. Within a stream, FIFO order is
// preserved — the property the transport engines rely on to keep each
// operation's frames in per-pair sequence order while interleaving
// frames of different operations on the shared links.
//
// Push never blocks (streams are unbounded; the admission window in
// Scheduler bounds total work). Pop blocks until an item is available
// or the queue is closed. All methods are safe for concurrent use.
type FairQueue[T any] struct {
	mu      sync.Mutex
	streams map[uint32][]T
	order   []uint32 // round-robin rotation of streams with pending items
	next    int      // index into order of the stream to serve next
	spare   [][]T    // drained streams' slices, emptied, for the next new stream
	closed  bool
	wake    chan struct{} // cap 1; signalled on Push and Close
}

// NewFairQueue builds an empty fair queue.
func NewFairQueue[T any]() *FairQueue[T] {
	return &FairQueue[T]{
		streams: make(map[uint32][]T),
		wake:    make(chan struct{}, 1),
	}
}

// Push appends an item to the given stream and reports whether it did.
// Pushing to a closed queue drops the item (the consumer is gone) and
// reports false.
func (q *FairQueue[T]) Push(stream uint32, item T) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	s, ok := q.streams[stream]
	if !ok {
		q.order = append(q.order, stream)
		if n := len(q.spare); n > 0 {
			s, q.spare = q.spare[n-1], q.spare[:n-1]
		}
	}
	q.streams[stream] = append(s, item)
	q.mu.Unlock()
	q.signal()
	return true
}

// Pop removes and returns the next item, rotating across streams.
// It blocks while the queue is empty; ok is false once the queue is
// closed and drained.
func (q *FairQueue[T]) Pop() (item T, ok bool) {
	for {
		q.mu.Lock()
		if len(q.order) > 0 {
			if q.next >= len(q.order) {
				q.next = 0
			}
			id := q.order[q.next]
			s := q.streams[id]
			item = s[0]
			clear(s[:1]) // the queue no longer holds the served item
			if len(s) == 1 {
				delete(q.streams, id)
				q.spare = append(q.spare, s[:0])
				q.order = append(q.order[:q.next], q.order[q.next+1:]...)
				// q.next now points at the following stream already.
			} else {
				q.streams[id] = s[1:]
				q.next++
			}
			more := len(q.order) > 0
			q.mu.Unlock()
			if more {
				// The cap-1 wake channel coalesces Push signals, so a
				// sibling Pop may still be parked while items remain:
				// pass the wakeup along.
				q.signal()
			}
			return item, true
		}
		if q.closed {
			q.mu.Unlock()
			q.signal() // cascade the close wakeup to other parked Pops
			var zero T
			return zero, false
		}
		q.mu.Unlock()
		<-q.wake
	}
}

// Len returns the total number of queued items across all streams.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, s := range q.streams {
		n += len(s)
	}
	return n
}

// Close wakes blocked Pops; they drain remaining items and then return
// ok=false. Close is idempotent.
func (q *FairQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

func (q *FairQueue[T]) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}
