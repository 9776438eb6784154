package cluster

import (
	"strconv"

	"encag/internal/fault"
	"encag/internal/metrics"
)

// Metric family names exposed by a session. Kept as constants so the
// exposition, the snapshot API and the tests agree on the schema.
const (
	MetricOpsStarted     = "encag_session_ops_started_total"
	MetricOpsCompleted   = "encag_session_ops_completed_total"
	MetricOpsFailed      = "encag_session_ops_failed_total"
	MetricOpsCancelled   = "encag_session_ops_cancelled_total"
	MetricRekeys         = "encag_session_rekeys_total"
	MetricPoisonings     = "encag_session_poisonings_total"
	MetricWireBytes      = "encag_session_wire_bytes_total"
	MetricOpLatency      = "encag_session_op_latency_ns"
	MetricInflight       = "encag_sched_inflight"
	MetricWindow         = "encag_sched_window"
	MetricWindowWaits    = "encag_sched_window_waits_total"
	MetricQueueDepth     = "encag_sched_queue_depth"
	MetricSegmentsSealed = "encag_seal_segments_sealed_total"
	MetricSegmentsOpened = "encag_seal_segments_opened_total"
	MetricPoolSize       = "encag_seal_pool_size"
	MetricPoolWorkers    = "encag_seal_pool_workers"
	MetricPoolBusy       = "encag_seal_pool_busy"
	MetricPoolSaturated  = "encag_seal_pool_saturated_total"
	MetricFaultsInjected = "encag_fault_injected_total"
	MetricReconnects     = "encag_fault_reconnects_total"
	MetricResends        = "encag_fault_resends_total"
	MetricDedupDrops     = "encag_fault_dedup_drops_total"
	MetricRecvTimeouts   = "encag_fault_recv_timeouts_total"
	MetricStragglers     = "encag_fault_stragglers_dropped_total"
	MetricFramesSent     = "encag_transport_frames_sent_total"
	MetricFramesRecv     = "encag_transport_frames_recv_total"
	MetricBytesSent      = "encag_transport_bytes_sent_total"
	MetricBytesRecv      = "encag_transport_bytes_recv_total"

	MetricPipeStreams        = "encag_pipeline_streams_total"
	MetricPipeSegmentsSent   = "encag_pipeline_segments_sent_total"
	MetricPipeSegmentsRecv   = "encag_pipeline_segments_recv_total"
	MetricPipeRelayStreams   = "encag_pipeline_relay_streams_total"
	MetricPipeStreamSegments = "encag_pipeline_stream_segments"
)

// faultKinds spans the fault.Kind enum for the per-kind counters.
var faultKinds = []fault.Kind{
	fault.Drop, fault.Corrupt, fault.Stall, fault.StallRead, fault.PartialWrite,
}

// liveMetrics holds a session's pre-resolved metric handles so the hot
// paths (send loops, connection readers, the collective coordinator)
// touch only atomics — registration cost is paid once at session open.
// Transport counters are per directed pair, resolved into [src][dst]
// arrays for the same reason; a transport total is the sum of its pair
// series, kept nowhere else. Callback-backed families (window, in-flight,
// queue depth, pool and sealer stats, wire bytes) are registered by the
// session once the subsystems they read exist.
type liveMetrics struct {
	reg *metrics.Registry

	opsStarted   *metrics.Counter
	opsCompleted *metrics.Counter
	opsFailed    *metrics.Counter
	opsCancelled *metrics.Counter
	rekeys       *metrics.Counter
	poisonings   *metrics.Counter
	opLatency    *metrics.Histogram

	faults       []*metrics.Counter // indexed by fault.Kind
	reconnects   *metrics.Counter
	resends      *metrics.Counter
	dedupDrops   *metrics.Counter
	recvTimeouts *metrics.Counter
	stragglers   *metrics.Counter

	framesSent [][]*metrics.Counter // [src][dst]; nil on the diagonal
	framesRecv [][]*metrics.Counter
	bytesSent  [][]*metrics.Counter
	bytesRecv  [][]*metrics.Counter

	pipeStreams        *metrics.Counter
	pipeSegmentsSent   *metrics.Counter
	pipeSegmentsRecv   *metrics.Counter
	pipeStreamSegments *metrics.Histogram
	pipeRelayStreams   *metrics.Counter
}

// newLiveMetrics registers the session's static families on reg and
// resolves their handles. EngineSim sessions get the operation counters
// only: the sim has no transport, crypto pool or fault path to observe.
func newLiveMetrics(reg *metrics.Registry, spec Spec, kind EngineKind) *liveMetrics {
	lm := &liveMetrics{
		reg:          reg,
		opsStarted:   reg.Counter(MetricOpsStarted, "Collectives admitted to the session."),
		opsCompleted: reg.Counter(MetricOpsCompleted, "Collectives that finished successfully."),
		opsFailed:    reg.Counter(MetricOpsFailed, "Collectives that failed (excluding cancellations)."),
		opsCancelled: reg.Counter(MetricOpsCancelled, "Collectives cancelled by their context."),
	}
	if kind == EngineSim {
		return lm
	}
	lm.rekeys = reg.Counter(MetricRekeys, "Session key rotations.")
	lm.poisonings = reg.Counter(MetricPoisonings, "Transport failures that broke the session.")
	lm.opLatency = reg.Histogram(MetricOpLatency, "Collective wall-clock latency in nanoseconds.")
	lm.faults = make([]*metrics.Counter, len(faultKinds))
	for _, k := range faultKinds {
		lm.faults[k] = reg.Counter(MetricFaultsInjected, "Faults the injector applied, by kind.",
			metrics.L("kind", k.String()))
	}
	lm.reconnects = reg.Counter(MetricReconnects, "TCP links re-dialed after a transient send failure.")
	lm.resends = reg.Counter(MetricResends, "Frame send attempts beyond the first (resend recovery, both pair kinds).")
	lm.dedupDrops = reg.Counter(MetricDedupDrops, "Duplicate frames dropped by the sequence gates.")
	lm.recvTimeouts = reg.Counter(MetricRecvTimeouts, "Receives that hit the per-wait deadline.")
	lm.stragglers = reg.Counter(MetricStragglers, "Frames of retired operations dropped by the demux.")

	lm.pipeStreams = reg.Counter(MetricPipeStreams, "Pipelined messages streamed segment by segment (one sealed chunk each).")
	lm.pipeSegmentsSent = reg.Counter(MetricPipeSegmentsSent, "Sealed segments put on the wire by pipelined sends.")
	lm.pipeSegmentsRecv = reg.Counter(MetricPipeSegmentsRecv, "Sealed segments delivered into receive streams.")
	lm.pipeStreamSegments = reg.Histogram(MetricPipeStreamSegments, "Segments per completed receive stream.")
	lm.pipeRelayStreams = reg.Counter(MetricPipeRelayStreams, "Streamed messages whose receiver relays the sealed chunk on, so it keeps their sealed segments.")

	lm.framesSent = pairCounters(reg, MetricFramesSent, "Frames sent, by directed rank pair.", spec.P)
	lm.framesRecv = pairCounters(reg, MetricFramesRecv, "Frames delivered, by directed rank pair.", spec.P)
	lm.bytesSent = pairCounters(reg, MetricBytesSent, "Payload bytes sent, by directed rank pair.", spec.P)
	lm.bytesRecv = pairCounters(reg, MetricBytesRecv, "Payload bytes delivered, by directed rank pair.", spec.P)
	return lm
}

// pairCounters registers one {src,dst}-labelled series of a family per
// directed rank pair and returns them as a [src][dst] matrix, nil on the
// diagonal.
func pairCounters(reg *metrics.Registry, name, help string, p int) [][]*metrics.Counter {
	m := make([][]*metrics.Counter, p)
	for s := range m {
		m[s] = make([]*metrics.Counter, p)
		for d := range m[s] {
			if s != d {
				m[s][d] = reg.Counter(name, help,
					metrics.L("src", strconv.Itoa(s)), metrics.L("dst", strconv.Itoa(d)))
			}
		}
	}
	return m
}

// countSent charges one sent frame of n payload-wire bytes to src->dst.
func (lm *liveMetrics) countSent(src, dst int, n int64) {
	lm.framesSent[src][dst].Inc()
	lm.bytesSent[src][dst].Add(n)
}

// countRecv charges one delivered frame of n payload-wire bytes on the
// src->dst pair.
func (lm *liveMetrics) countRecv(src, dst int, n int64) {
	lm.framesRecv[src][dst].Inc()
	lm.bytesRecv[src][dst].Add(n)
}

// pairSum totals a [src][dst] counter matrix, skipping the nil diagonal.
func pairSum(m [][]*metrics.Counter) int64 {
	var n int64
	for _, row := range m {
		for _, c := range row {
			if c != nil {
				n += c.Value()
			}
		}
	}
	return n
}

// observeFault is the fault.Injector observer: one call per applied
// fault, charged to the per-kind counter.
func (lm *liveMetrics) observeFault(k fault.Kind) {
	if int(k) < len(lm.faults) && lm.faults[k] != nil {
		lm.faults[k].Inc()
	}
}

// SessionSnapshot is the typed point-in-time view of a session's live
// metrics — the programmatic twin of the Prometheus exposition.
// Transport totals are the sums of the per-pair series the registry
// exposes. InFlight, Window and WindowWaits describe the in-flight
// window, the session's pool of rank slots.
type SessionSnapshot struct {
	Engine string

	OpsStarted   int64
	OpsCompleted int64
	OpsFailed    int64
	OpsCancelled int64
	Rekeys       int64
	Poisonings   int64
	InFlight     int
	QueueDepth   int

	// OpLatency distributes completed collectives' wall-clock latency in
	// nanoseconds.
	OpLatency metrics.HistSnapshot

	// WireBytes is the sniffer's cumulative inter-node byte count
	// (EngineTCP only).
	WireBytes int64

	SegmentsSealed int64
	SegmentsOpened int64
	PoolSize       int
	PoolWorkers    int
	PoolBusy       int
	PoolSaturated  int64

	// FaultsInjected maps fault kind names to applied-fault counts.
	FaultsInjected map[string]int64
	Reconnects     int64
	Resends        int64
	DedupDrops     int64
	RecvTimeouts   int64
	Stragglers     int64

	FramesSent int64
	FramesRecv int64
	BytesSent  int64
	BytesRecv  int64

	// Pipeline* fields describe intra-collective segment streaming
	// (zero everywhere unless a TCP session has pipelining on).
	// PipelineStreams counts streamed messages, each one sealed chunk.
	// PipelineInlineOpens counts the segments delivered into receive
	// streams: every received segment opens on its connection's reader
	// goroutine as it lands.
	PipelineStreams      int64
	PipelineSegmentsSent int64
	PipelineInlineOpens  int64

	// PipelineStreamSegments distributes segments per completed
	// receive stream.
	PipelineStreamSegments metrics.HistSnapshot
	// PipelineRelayStreams counts the streamed messages whose receiver
	// relays the sealed chunk on: it keeps their sealed segments in a
	// blob. The receiver of every other stream opens each segment in
	// the plaintext buffer it lands in and keeps no ciphertext.
	PipelineRelayStreams int64

	Window      int
	WindowWaits int64

	// AutoSelected counts alg=auto resolutions by chosen algorithm
	// name. Filled by the facade layer (selection happens there); nil
	// when no auto operation has run.
	AutoSelected map[string]int64
}

// Metrics returns the session's live metrics registry. Counters update
// while collectives run; expose it with WritePrometheus/ExpvarFunc or
// read it through Snapshot.
func (s *Session) Metrics() *metrics.Registry { return s.lm.reg }

// Snapshot reads the session's live metrics into one typed view. Safe
// to call at any time, including while collectives are in flight.
func (s *Session) Snapshot() SessionSnapshot {
	lm := s.lm
	snap := SessionSnapshot{
		Engine:       s.cfg.Engine.String(),
		OpsStarted:   lm.opsStarted.Value(),
		OpsCompleted: lm.opsCompleted.Value(),
		OpsFailed:    lm.opsFailed.Value(),
		OpsCancelled: lm.opsCancelled.Value(),
		InFlight:     s.InFlight(),
		Window:       s.MaxInFlight(),
		WindowWaits:  s.WindowWaits(),
	}
	if s.cfg.Engine == EngineSim {
		return snap
	}
	snap.Rekeys = lm.rekeys.Value()
	snap.Poisonings = lm.poisonings.Value()
	snap.OpLatency = lm.opLatency.Snapshot()
	snap.QueueDepth = int(s.tr.queueDepth())
	snap.SegmentsSealed, snap.SegmentsOpened = s.tally.Sealed(), s.tally.Opened()
	ps := s.Sealer().Pool().Stats()
	snap.PoolSize = ps.Size
	snap.PoolWorkers = ps.Workers
	snap.PoolBusy = ps.Busy
	snap.PoolSaturated = ps.Saturated
	snap.FaultsInjected = make(map[string]int64, len(faultKinds))
	for _, k := range faultKinds {
		snap.FaultsInjected[k.String()] = lm.faults[k].Value()
	}
	snap.Reconnects = lm.reconnects.Value()
	snap.Resends = lm.resends.Value()
	snap.DedupDrops = lm.dedupDrops.Value()
	snap.RecvTimeouts = lm.recvTimeouts.Value()
	snap.Stragglers = lm.stragglers.Value()
	snap.FramesSent = pairSum(lm.framesSent)
	snap.FramesRecv = pairSum(lm.framesRecv)
	snap.BytesSent = pairSum(lm.bytesSent)
	snap.BytesRecv = pairSum(lm.bytesRecv)
	snap.PipelineStreams = lm.pipeStreams.Value()
	snap.PipelineSegmentsSent = lm.pipeSegmentsSent.Value()
	snap.PipelineInlineOpens = lm.pipeSegmentsRecv.Value()
	snap.PipelineStreamSegments = lm.pipeStreamSegments.Snapshot()
	snap.PipelineRelayStreams = lm.pipeRelayStreams.Value()
	if sn := s.tr.sniff; sn != nil {
		snap.WireBytes = sn.Total()
	}
	return snap
}

// registerRuntimeMetrics wires the callback-backed families that read
// live subsystem state at scrape time: the in-flight window (every
// engine), and on chan and tcp the send queue depth, the session's seal
// tally, the process-wide crypto pool's stats and — on TCP — the
// sniffer's cumulative wire bytes.
func (s *Session) registerRuntimeMetrics() {
	reg := s.lm.reg
	reg.GaugeFunc(MetricInflight, "Collectives currently in flight on the session.",
		func() int64 { return int64(s.InFlight()) })
	reg.GaugeFunc(MetricWindow, "In-flight window size (rank slots).",
		func() int64 { return int64(s.MaxInFlight()) })
	reg.CounterFunc(MetricWindowWaits, "Collectives that found the window full and waited.",
		s.WindowWaits)
	if s.tr == nil {
		return
	}
	reg.GaugeFunc(MetricQueueDepth, "Frames queued on the per-rank send schedulers.",
		s.tr.queueDepth)
	reg.CounterFunc(MetricSegmentsSealed, "AES-GCM segments sealed over the session lifetime.",
		s.tally.Sealed)
	reg.CounterFunc(MetricSegmentsOpened, "AES-GCM segments opened over the session lifetime.",
		s.tally.Opened)
	if s.cfg.CryptoPool == nil { // an injected pool is its owner's to report, once
		reg.GaugeFunc(MetricPoolSize, "Crypto worker pool size (worker cap).",
			func() int64 { return int64(s.Sealer().Pool().Stats().Size) })
		reg.GaugeFunc(MetricPoolWorkers, "Crypto pool workers currently alive.",
			func() int64 { return int64(s.Sealer().Pool().Stats().Workers) })
		reg.GaugeFunc(MetricPoolBusy, "Crypto pool workers executing a task right now.",
			func() int64 { return int64(s.Sealer().Pool().Stats().Busy) })
		reg.CounterFunc(MetricPoolSaturated, "Segmented operations that degraded to serial on a saturated pool.",
			func() int64 { return s.Sealer().Pool().Stats().Saturated })
	}
	if sn := s.tr.sniff; sn != nil {
		reg.CounterFunc(MetricWireBytes, "Cumulative inter-node bytes observed on the wire.",
			sn.Total)
	}
}
