package encag

import (
	"encag/internal/cluster"
	"encag/internal/metrics"
)

// MetricsRegistry is a session's live metrics store: atomic counters,
// gauges and log-bucketed histograms, exposable as Prometheus text
// format (WritePrometheus), as an expvar value (ExpvarFunc) or as a
// flat map (Snapshot). Obtain one with Session.Metrics. The name
// MetricsRegistry (rather than Metrics) avoids colliding with the
// six-metric cost model type Metrics.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is the typed point-in-time view Session.Snapshot
// returns: operation counters, latency quantiles, scheduler and seal
// pool state, fault/recovery counters and transport totals.
type MetricsSnapshot = cluster.SessionSnapshot

// HistogramSnapshot reports a latency histogram's totals and
// nearest-rank quantiles (see MetricsSnapshot.OpLatency).
type HistogramSnapshot = metrics.HistSnapshot

// Names of the in-flight window's metric families, registered by the
// cluster runtime with the rest of its schema (encag_session_*,
// encag_sched_*, encag_seal_*, encag_fault_*, encag_transport_*), and of
// the one family the facade adds.
const (
	// MetricWindow is the configured in-flight window size.
	MetricWindow = cluster.MetricWindow
	// MetricWindowWaits counts collectives that found the window full
	// and waited.
	MetricWindowWaits = cluster.MetricWindowWaits
	// MetricAutoSelected counts AlgAuto resolutions by the concrete
	// algorithm chosen, as encag_auto_selected_total{alg="..."}.
	MetricAutoSelected = "encag_auto_selected_total"
)
