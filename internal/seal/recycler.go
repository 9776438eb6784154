package seal

// Recycler is a bounded free list of per-call records: a channel, not a
// sync.Pool, which the collector empties every cycle (at megabytes per
// operation, every op or two) and whose per-P caches mostly miss, so
// most calls would build a fresh record. A full list drops what it is
// handed; at most 16 records of a kind stay idle. Build one with
// NewRecycler.
type Recycler[T any] struct {
	free  chan *T
	fresh func() *T
}

// NewRecycler returns an empty free list whose Get builds a record with
// fresh when the list has none.
func NewRecycler[T any](fresh func() *T) Recycler[T] {
	return Recycler[T]{free: make(chan *T, 16), fresh: fresh}
}

// Get returns an idle record, or a fresh one.
func (r Recycler[T]) Get() *T {
	select {
	case x := <-r.free:
		return x
	default:
		return r.fresh()
	}
}

// Put keeps x for a later Get, unless the list is full.
func (r Recycler[T]) Put(x *T) {
	select {
	case r.free <- x:
	default:
	}
}
