package metrics

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus writes every registered family in Prometheus text
// exposition format: families sorted by name, entries in registration
// order, HELP/TYPE headers once per family. Counters and gauges emit
// one sample per entry; histograms emit the summary shape — three
// quantile samples (0.5, 0.95, 0.99) plus _sum and _count.
//
// Scrape-time callbacks run outside the registry lock, so a callback
// may itself take subsystem locks. It is WriteMergedPrometheus with r as
// the one unlabelled source.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteMergedPrometheus(w, Source{Reg: r})
}

// writeEntry emits one entry's samples, with inner (a rendered
// `k="v",...` run without braces) injected into its label set.
func writeEntry(b *strings.Builder, kind Kind, name string, e *entry, inner string) {
	labels := injectLabels(e.labels, inner)
	if kind == KindHistogram {
		writeSummary(b, name, labels, e)
		return
	}
	fmt.Fprintf(b, "%s%s %d\n", name, labels, e.value())
}

func writeSummary(b *strings.Builder, name, labels string, e *entry) {
	s := e.hist.Snapshot()
	for _, qv := range []struct {
		q string
		v int64
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
		fmt.Fprintf(b, "%s%s %d\n", name, mergeLabels(labels, `quantile="`+qv.q+`"`), qv.v)
	}
	fmt.Fprintf(b, "%s_sum%s %d\n", name, labels, s.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, s.Count)
}

// Source pairs a registry with constant labels injected into every
// sample it contributes to a merged exposition — e.g. tenant="t7" on a
// per-tenant session registry inside a multi-tenant host's scrape.
type Source struct {
	Reg    *Registry
	Labels []Label
}

// WriteMergedPrometheus writes the union of several registries as one
// valid Prometheus exposition: families appearing in more than one
// source are grouped under a single HELP/TYPE header (first source's
// help wins), and each source's entries carry that source's constant
// labels. A source whose family kind disagrees with the first
// registration is skipped for that family — the exposition stays
// well-formed rather than mixing types under one name.
func WriteMergedPrometheus(w io.Writer, sources ...Source) error {
	type part struct {
		fam   famView
		inner string
	}
	order := []string{}
	merged := map[string][]part{}
	for _, src := range sources {
		if src.Reg == nil {
			continue
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(renderLabels(src.Labels), "{"), "}")
		for _, f := range src.Reg.view() {
			if _, seen := merged[f.name]; !seen {
				order = append(order, f.name)
			}
			merged[f.name] = append(merged[f.name], part{fam: f, inner: inner})
		}
	}
	sort.Strings(order)
	var b strings.Builder
	for _, name := range order {
		parts := merged[name]
		kind := parts[0].fam.kind
		fmt.Fprintf(&b, "# HELP %s %s\n", name, parts[0].fam.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		for _, p := range parts {
			if p.fam.kind != kind {
				continue
			}
			for _, e := range p.fam.entries {
				writeEntry(&b, kind, name, e, p.inner)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// injectLabels splices a rendered inner label run into an already
// rendered label string.
func injectLabels(labels, inner string) string {
	if inner == "" {
		return labels
	}
	if labels == "" {
		return "{" + inner + "}"
	}
	return labels[:len(labels)-1] + "," + inner + "}"
}

// mergeLabels appends one rendered pair to an already rendered label
// string.
func mergeLabels(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// Snapshot returns every metric's current value as a flat map keyed by
// "name" or "name{labels}". Counters and gauges map to int64;
// histograms map to a sub-object with count/sum/min/max/p50/p95/p99.
// The result marshals cleanly as JSON — it backs the expvar exposition.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	for _, f := range r.view() {
		for _, e := range f.entries {
			key := f.name + e.labels
			if f.kind == KindHistogram {
				s := e.hist.Snapshot()
				out[key] = map[string]int64{
					"count": s.Count, "sum": s.Sum,
					"min": s.Min, "max": s.Max,
					"p50": s.P50, "p95": s.P95, "p99": s.P99,
				}
				continue
			}
			out[key] = e.value()
		}
	}
	return out
}

// ExpvarFunc adapts the registry to an expvar.Var, for publication
// under a caller-chosen name (expvar.Publish) or direct serving on a
// /debug/vars endpoint.
func (r *Registry) ExpvarFunc() expvar.Func {
	return expvar.Func(func() any { return r.Snapshot() })
}
