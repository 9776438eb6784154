// Package trace collects and analyses activity timelines from all-gather
// runs: what every rank spent on sending, receiving (i.e. waiting for
// data), encrypting, decrypting, copying and synchronising — in virtual
// time for the sim engine, in wall-clock time for the real and TCP
// engines. It renders per-rank breakdowns, an aggregate time profile,
// and an ASCII Gantt chart — handy for seeing *why* one algorithm beats
// another (e.g. Naive's post-all-gather decryption wall, or HS2's
// copy-dominated step 4). internal/obs exports the same event stream as
// Chrome trace JSON and JSONL run summaries.
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"encag/internal/cluster"
)

// Collector accumulates trace events; it implements cluster.Tracer.
// Record is goroutine-safe: the real and TCP engines emit events from p
// concurrent rank goroutines (the sim scheduler is sequential). The
// analysis methods snapshot the event list under the same lock, so they
// may be called while a run is still recording, though they are normally
// used after the run returns.
type Collector struct {
	mu     sync.Mutex
	Events []cluster.TraceEvent
}

// Record implements cluster.Tracer.
func (c *Collector) Record(ev cluster.TraceEvent) {
	c.mu.Lock()
	c.Events = append(c.Events, ev)
	c.mu.Unlock()
}

// snapshot returns the events recorded so far; safe against concurrent
// Record calls.
func (c *Collector) snapshot() []cluster.TraceEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Events[:len(c.Events):len(c.Events)]
}

// Kinds lists the activity categories in display order.
func Kinds() []cluster.TraceKind {
	return []cluster.TraceKind{
		cluster.TraceSend, cluster.TraceRecv, cluster.TraceEncrypt,
		cluster.TraceDecrypt, cluster.TraceCopy, cluster.TraceBarrier,
	}
}

// Profile is the per-category time breakdown of one rank.
type Profile struct {
	Rank  int
	Total map[cluster.TraceKind]float64 // seconds per category
	Bytes map[cluster.TraceKind]int64
	End   float64 // when the rank's last event ended
}

// Sum returns the rank's total attributed time.
func (p Profile) Sum() float64 {
	var s float64
	for _, v := range p.Total {
		s += v
	}
	return s
}

// Profiles folds the events into per-rank breakdowns, indexed by rank.
func (c *Collector) Profiles(p int) []Profile {
	out := make([]Profile, p)
	for r := range out {
		out[r] = Profile{
			Rank:  r,
			Total: make(map[cluster.TraceKind]float64),
			Bytes: make(map[cluster.TraceKind]int64),
		}
	}
	for _, ev := range c.snapshot() {
		if ev.Rank < 0 || ev.Rank >= p {
			continue
		}
		pr := &out[ev.Rank]
		pr.Total[ev.Kind] += ev.End - ev.Start
		pr.Bytes[ev.Kind] += ev.Bytes
		if ev.End > pr.End {
			pr.End = ev.End
		}
	}
	return out
}

// Critical returns the profile of the last-finishing rank — the rank
// that defines the operation's latency. For p <= 0 it returns an empty
// profile instead of panicking.
func (c *Collector) Critical(p int) Profile {
	profiles := c.Profiles(p)
	if len(profiles) == 0 {
		return Profile{
			Total: make(map[cluster.TraceKind]float64),
			Bytes: make(map[cluster.TraceKind]int64),
		}
	}
	best := profiles[0]
	for _, pr := range profiles[1:] {
		if pr.End > best.End {
			best = pr
		}
	}
	return best
}

// Aggregate sums category times across all ranks.
func (c *Collector) Aggregate() map[cluster.TraceKind]float64 {
	agg := make(map[cluster.TraceKind]float64)
	for _, ev := range c.snapshot() {
		agg[ev.Kind] += ev.End - ev.Start
	}
	return agg
}

// WriteBreakdown renders the critical rank's breakdown plus the
// all-ranks aggregate as text.
func (c *Collector) WriteBreakdown(w io.Writer, p int) error {
	crit := c.Critical(p)
	if _, err := fmt.Fprintf(w, "critical rank %d (finished at %.3f us):\n", crit.Rank, crit.End*1e6); err != nil {
		return err
	}
	for _, k := range Kinds() {
		if crit.Total[k] == 0 && crit.Bytes[k] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-8s %10.3f us  %12d bytes\n",
			k, crit.Total[k]*1e6, crit.Bytes[k]); err != nil {
			return err
		}
	}
	agg := c.Aggregate()
	if _, err := fmt.Fprintf(w, "aggregate over all ranks:\n"); err != nil {
		return err
	}
	for _, k := range Kinds() {
		if agg[k] == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-8s %10.3f us\n", k, agg[k]*1e6); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders an ASCII timeline: one row per rank, `width` buckets
// spanning [0, horizon]. Each bucket shows the dominant activity:
// S=send, r=recv-wait, E=encrypt, D=decrypt, c=copy, b=barrier,
// '.'=idle/untracked.
func (c *Collector) Gantt(w io.Writer, p int, width int) error {
	if width <= 0 {
		width = 80
	}
	events := c.snapshot()
	var horizon float64
	for _, ev := range events {
		if ev.End > horizon {
			horizon = ev.End
		}
	}
	if horizon == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	glyph := map[cluster.TraceKind]byte{
		cluster.TraceSend:    'S',
		cluster.TraceRecv:    'r',
		cluster.TraceEncrypt: 'E',
		cluster.TraceDecrypt: 'D',
		cluster.TraceCopy:    'c',
		cluster.TraceBarrier: 'b',
	}
	// Per rank, per bucket, accumulate time per kind; draw the max.
	type bucketAcc map[cluster.TraceKind]float64
	rows := make([][]bucketAcc, p)
	for r := range rows {
		rows[r] = make([]bucketAcc, width)
	}
	bucketDur := horizon / float64(width)
	for _, ev := range events {
		if ev.Rank < 0 || ev.Rank >= p {
			continue
		}
		b0 := int(ev.Start / bucketDur)
		b1 := int(ev.End / bucketDur)
		if b0 >= width {
			b0 = width - 1
		}
		if b1 >= width {
			b1 = width - 1
		}
		for b := b0; b <= b1; b++ {
			lo := float64(b) * bucketDur
			hi := lo + bucketDur
			overlap := minf(ev.End, hi) - maxf(ev.Start, lo)
			if overlap <= 0 {
				continue
			}
			if rows[ev.Rank][b] == nil {
				rows[ev.Rank][b] = make(bucketAcc)
			}
			rows[ev.Rank][b][ev.Kind] += overlap
		}
	}
	if _, err := fmt.Fprintf(w, "timeline 0 .. %.3f us  (S=send r=recv-wait E=encrypt D=decrypt c=copy b=barrier)\n", horizon*1e6); err != nil {
		return err
	}
	for r := 0; r < p; r++ {
		var sb strings.Builder
		for b := 0; b < width; b++ {
			acc := rows[r][b]
			if len(acc) == 0 {
				sb.WriteByte('.')
				continue
			}
			var bestK cluster.TraceKind
			var bestV float64 = -1
			for _, k := range Kinds() {
				if v := acc[k]; v > bestV {
					bestV, bestK = v, k
				}
			}
			sb.WriteByte(glyph[bestK])
		}
		if _, err := fmt.Fprintf(w, "rank %4d |%s|\n", r, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// SortedByStart returns the events ordered by (start, rank) — useful for
// deterministic assertions in tests.
func (c *Collector) SortedByStart() []cluster.TraceEvent {
	evs := append([]cluster.TraceEvent(nil), c.snapshot()...)
	slices.SortStableFunc(evs, func(a, b cluster.TraceEvent) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Rank, b.Rank))
	})
	return evs
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
