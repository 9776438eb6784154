// Package metrics is a dependency-free, allocation-conscious metrics
// registry for the session runtime: atomic counters, gauges and
// log-bucketed histograms with quantile snapshots, exposed as Prometheus
// text format and as an expvar-compatible JSON snapshot.
//
// The design splits registration from observation. Registration (once,
// at session open) resolves a name + label set to a live handle under
// the registry lock; the hot path then touches only the handle's
// atomics — no map lookups, no label rendering, no allocation per
// observation. Callback-backed metrics (CounterFunc, GaugeFunc) read
// existing state (pool stats, sniffer totals, queue depths) lazily at
// scrape time, so subsystems that already count for themselves are not
// double-instrumented.
//
// Values are int64 throughout. Latency histograms store nanoseconds and
// carry a _ns name suffix by convention; sizes store bytes.
package metrics

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is usable, but counters are normally minted by Registry.Counter so
// they appear in the exposition.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Kind is a metric family's type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		// Histograms expose pre-computed quantiles, which is the
		// Prometheus summary type.
		return "summary"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Label is one name=value pair qualifying a metric within its family.
type Label struct{ Key, Value string }

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	nameRE     = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelKeyRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// entry is one metric instance: a family member identified by its
// rendered label string. Exactly one of counter/gauge/hist/fn is set.
type entry struct {
	labels  string // rendered `{k="v",...}`, "" for the unlabelled member
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

// value reads a scalar entry (counter or gauge, stored or callback).
func (e *entry) value() int64 {
	switch {
	case e.fn != nil:
		return e.fn()
	case e.counter != nil:
		return e.counter.Value()
	case e.gauge != nil:
		return e.gauge.Value()
	}
	return 0
}

// family groups the entries sharing one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	entries []*entry // insertion order; exposition order within the family
	byLabel map[string]*entry
}

// Registry is a set of named metric families. All methods are safe for
// concurrent use. Registration is get-or-create: asking for an existing
// name + label set returns the same live handle, so several subsystems
// (or successive sessions sharing one registry) can contribute to one
// series. Registering a name under a different Kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels produces the canonical label string: keys sorted, values
// escaped, `{k="v",...}` — the entry's identity within its family.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !labelKeyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label key %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// slot returns the entry for name+labels, creating family and entry as
// needed. Callers hold r.mu.
func (r *Registry) slot(name, help string, kind Kind, labels []Label) *entry {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLabel: make(map[string]*entry)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	key := renderLabels(labels)
	e := f.byLabel[key]
	if e == nil {
		e = &entry{labels: key}
		f.byLabel[key] = e
		f.entries = append(f.entries, e)
	}
	return e
}

// Counter returns the counter registered under name+labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.slot(name, help, KindCounter, labels)
	if e.fn != nil {
		panic(fmt.Sprintf("metrics: %s%s is callback-backed", name, e.labels))
	}
	if e.counter == nil {
		e.counter = &Counter{}
	}
	return e.counter
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.slot(name, help, KindGauge, labels)
	if e.fn != nil {
		panic(fmt.Sprintf("metrics: %s%s is callback-backed", name, e.labels))
	}
	if e.gauge == nil {
		e.gauge = &Gauge{}
	}
	return e.gauge
}

// Histogram returns the histogram registered under name+labels,
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.slot(name, help, KindHistogram, labels)
	if e.hist == nil {
		e.hist = NewHistogram()
	}
	return e.hist
}

// CounterFunc registers a callback-backed counter: fn is invoked at
// scrape/snapshot time and must be monotone and goroutine-safe.
// Re-registering the same name+labels replaces the callback (the shape
// a session takes when it re-wires state, e.g. after a rekey).
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.slot(name, help, KindCounter, labels)
	if e.counter != nil {
		panic(fmt.Sprintf("metrics: %s%s is a stored counter", name, e.labels))
	}
	e.fn = fn
}

// GaugeFunc registers a callback-backed gauge: fn is invoked at
// scrape/snapshot time and must be goroutine-safe. Re-registering the
// same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.slot(name, help, KindGauge, labels)
	if e.gauge != nil {
		panic(fmt.Sprintf("metrics: %s%s is a stored gauge", name, e.labels))
	}
	e.fn = fn
}

// famView is a consistent copy of a family's structure taken under the
// registry lock; values are read afterwards so scrape-time callbacks
// (which may take subsystem locks) never run under r.mu.
type famView struct {
	name, help string
	kind       Kind
	entries    []*entry
}

func (r *Registry) view() []famView {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]famView, 0, len(names))
	for _, n := range names {
		f := r.fams[n]
		out = append(out, famView{
			name:    f.name,
			help:    f.help,
			kind:    f.kind,
			entries: append([]*entry(nil), f.entries...),
		})
	}
	return out
}
