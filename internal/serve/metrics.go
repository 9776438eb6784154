package serve

import (
	"sort"
	"time"

	"encag"
	"encag/internal/metrics"
)

// Manager-registry metric families. Per-tenant families carry a
// tenant="<id>" label; the rest are host-wide. Tenant *session*
// families (encag_ops_total etc.) are not listed here — they live in
// each session's own registry and join the exposition through
// Manager.WriteMetrics with the same tenant label.
const (
	MetricTenantsResident = "encag_serve_tenants_resident"
	MetricTenantsKnown    = "encag_serve_tenants_known"
	MetricStepsInflight   = "encag_serve_steps_inflight"
	MetricQueueDepth      = "encag_serve_queue_depth"
	MetricAdmitted        = "encag_serve_admitted_total"
	MetricRejected        = "encag_serve_rejected_total" // label: reason
	MetricReaps           = "encag_serve_reaps_total"    // label: reason
	MetricRekeys          = "encag_serve_rekeys_total"
	MetricPoolSize        = "encag_serve_pool_size"
	MetricPoolBusy        = "encag_serve_pool_busy"
	MetricPoolDispatched  = "encag_serve_pool_dispatched_total"
	MetricPoolSaturated   = "encag_serve_pool_saturated_total"
	MetricTenantSteps     = "encag_serve_steps_total"           // label: tenant
	MetricTenantFailures  = "encag_serve_step_failures_total"   // label: tenant
	MetricTenantSessions  = "encag_serve_sessions_opened_total" // label: tenant
	MetricTenantLatency   = "encag_serve_step_latency_ns"       // label: tenant
)

// hostMetrics holds the manager's own handles: admission and lifecycle
// counters plus callback gauges over live state.
type hostMetrics struct {
	rejects map[string]*metrics.Counter
	reaps   map[string]*metrics.Counter
	rekeys  *metrics.Counter
}

func newHostMetrics(m *Manager) *hostMetrics {
	r := m.reg
	lm := &hostMetrics{
		rejects: make(map[string]*metrics.Counter, len(rejectReasons)),
		reaps:   make(map[string]*metrics.Counter, len(reapReasons)),
		rekeys:  r.Counter(MetricRekeys, "Background AES-GCM key rotations performed by the janitor."),
	}
	for _, reason := range rejectReasons {
		lm.rejects[reason] = r.Counter(MetricRejected, "Steps rejected by admission control, by reason.", metrics.L("reason", reason))
	}
	for _, reason := range reapReasons {
		lm.reaps[reason] = r.Counter(MetricReaps, "Tenant sessions reaped, by reason.", metrics.L("reason", reason))
	}
	r.GaugeFunc(MetricTenantsResident, "Tenant sessions currently resident.", func() int64 {
		return int64(m.Resident())
	})
	r.GaugeFunc(MetricTenantsKnown, "Tenants known to the host (resident or not).", func() int64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return int64(len(m.tenants))
	})
	r.GaugeFunc(MetricStepsInflight, "Collective steps executing right now across all tenants.", func() int64 {
		return int64(m.adm.inFlight())
	})
	r.GaugeFunc(MetricQueueDepth, "Callers waiting for a step slot.", func() int64 {
		return m.adm.queueDepth()
	})
	r.CounterFunc(MetricAdmitted, "Steps admitted past the gate.", func() int64 {
		return m.adm.admitted.Load()
	})
	r.GaugeFunc(MetricPoolSize, "Shared crypto pool worker cap.", func() int64 {
		return int64(m.pool.Size())
	})
	r.GaugeFunc(MetricPoolBusy, "Shared crypto pool workers executing a task right now.", func() int64 {
		return int64(m.pool.Stats().Busy)
	})
	r.CounterFunc(MetricPoolDispatched, "Tasks accepted by the shared crypto pool.", func() int64 {
		return m.pool.Stats().Dispatched
	})
	r.CounterFunc(MetricPoolSaturated, "Crypto offers refused at the worker cap (caller degraded to serial).", func() int64 {
		return m.pool.Stats().Saturated
	})
	return lm
}

func (lm *hostMetrics) rejected(reason string) {
	if c := lm.rejects[reason]; c != nil {
		c.Inc()
	}
}

func (lm *hostMetrics) reaped(reason string) {
	if c := lm.reaps[reason]; c != nil {
		c.Inc()
	}
}

// TenantStatus is one tenant's rollup inside a Snapshot.
type TenantStatus struct {
	ID             string                 `json:"id"`
	Resident       bool                   `json:"resident"`
	Steps          int64                  `json:"steps"`
	Failures       int64                  `json:"failures"`
	SessionsOpened int64                  `json:"sessions_opened"`
	LastUsed       time.Time              `json:"last_used"`
	StepLatency    metrics.HistSnapshot   `json:"step_latency_ns"`
	Session        *encag.MetricsSnapshot `json:"session,omitempty"` // resident tenants only
}

// Snapshot is the host's point-in-time rollup: per-tenant status plus
// admission, reap and shared-pool totals. It marshals cleanly as JSON
// (the /v1/tenants endpoint serves it verbatim).
type Snapshot struct {
	Tenants       []TenantStatus        `json:"tenants"` // sorted by id
	Resident      int                   `json:"resident"`
	Known         int                   `json:"known"`
	StepsInflight int                   `json:"steps_inflight"`
	QueueDepth    int                   `json:"queue_depth"`
	Admitted      int64                 `json:"admitted"`
	Rejected      map[string]int64      `json:"rejected"`
	Reaps         map[string]int64      `json:"reaps"`
	Rekeys        int64                 `json:"rekeys"`
	Pool          encag.CryptoPoolStats `json:"pool"`
}

// Snapshot captures the host rollup now.
func (m *Manager) Snapshot() Snapshot {
	snap := Snapshot{
		StepsInflight: m.adm.inFlight(),
		QueueDepth:    int(m.adm.queueDepth()),
		Admitted:      m.adm.admitted.Load(),
		Rejected:      make(map[string]int64, len(rejectReasons)),
		Reaps:         make(map[string]int64, len(reapReasons)),
		Rekeys:        m.lm.rekeys.Value(),
		Pool:          m.pool.Stats(),
	}
	for reason, c := range m.lm.rejects {
		snap.Rejected[reason] = c.Value()
	}
	type resident struct {
		idx  int
		sess *encag.Session
	}
	var live []resident
	m.mu.Lock()
	snap.Known = len(m.tenants)
	snap.Resident = m.resident
	// Reaps are counted under m.mu as a session leaves residency, so
	// read here they balance: Σ SessionsOpened ≤ Resident + Σ Reaps.
	for reason, c := range m.lm.reaps {
		snap.Reaps[reason] = c.Value()
	}
	for _, tn := range m.tenants {
		st := TenantStatus{
			ID:             tn.id,
			Resident:       tn.sess != nil,
			Steps:          tn.steps.Value(),
			Failures:       tn.failures.Value(),
			SessionsOpened: tn.opened.Value(),
			LastUsed:       tn.lastUsed,
			StepLatency:    tn.latency.Snapshot(),
		}
		if tn.sess != nil {
			live = append(live, resident{idx: len(snap.Tenants), sess: tn.sess})
		}
		snap.Tenants = append(snap.Tenants, st)
	}
	m.mu.Unlock()
	// Session snapshots outside m.mu: they take per-session locks.
	for _, lv := range live {
		s := lv.sess.Snapshot()
		snap.Tenants[lv.idx].Session = &s
	}
	sort.Slice(snap.Tenants, func(i, j int) bool {
		return snap.Tenants[i].ID < snap.Tenants[j].ID
	})
	return snap
}
