package main

import "strconv"

// metricDef declares one reported metric. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds; a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the baseline median by which it may worsen
}

// boundText is the bound as the tables print it; "-" for a metric that
// has none.
func (m metricDef) boundText() string {
	if m.Bound <= 0 {
		return "-"
	}
	return strconv.FormatFloat(m.Bound, 'f', 2, 64)
}

// endToEnd are the metrics a user of the stack would see, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.20},
	{"op_p50_us", "us", "lower", 0.10},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"cpu_ms_per_op", "ms", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_KB_per_op", "KB", "lower", 0.02},
	{"peak_rss_MB", "MB", "lower", 0.10},
}

// perLayer are the traced pass's single-layer metrics, grouped by the
// layer (module) they describe. A workload a layer does not run on
// reports 0. README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	// host: the benchmark's own reference measurements; they qualify the run.
	{Name: "host.calib_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "host.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "host.raw_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "host.slice_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.vm_hwm_MB", Unit: "MB", Better: "lower"},
	// encag: the session facade.
	{Name: "encag.open_session_ms", Unit: "ms", Better: "lower"},
	{Name: "encag.first_op_ms", Unit: "ms", Better: "lower"},
	{Name: "encag.close_ms", Unit: "ms", Better: "lower"},
	{Name: "encag.facade_us_per_op", Unit: "us", Better: "lower"},
	{Name: "encag.op_p99_us", Unit: "us", Better: "lower"},
	// sched: the nonblocking window.
	{Name: "sched.start_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.window_waits_per_kop", Unit: "count", Better: "lower"},
	{Name: "sched.inflight_mean", Unit: "count", Better: "higher"},
	{Name: "sched.retained_KB_per_op", Unit: "KB", Better: "lower"},
	// encrypted (+collective, bounds): the paper's six metrics, exact counts.
	{Name: "encrypted.rc", Unit: "count", Better: "lower"},
	{Name: "encrypted.sc_bytes", Unit: "B", Better: "lower"},
	{Name: "encrypted.re", Unit: "count", Better: "lower"},
	{Name: "encrypted.se_bytes", Unit: "B", Better: "lower"},
	{Name: "encrypted.rd", Unit: "count", Better: "lower"},
	{Name: "encrypted.sd_bytes", Unit: "B", Better: "lower"},
	{Name: "encrypted.bounds_mismatch", Unit: "count", Better: "lower"},
	// cluster: the per-operation runtime of both real engines, critical rank.
	{Name: "cluster.send_us", Unit: "us", Better: "lower"},
	{Name: "cluster.recvwait_us", Unit: "us", Better: "lower"},
	{Name: "cluster.encrypt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.decrypt_us", Unit: "us", Better: "lower"},
	{Name: "cluster.copy_us", Unit: "us", Better: "lower"},
	{Name: "cluster.barrier_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.inter_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.intra_msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.pipeline_segments_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.pipeline_inline_opens_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.resends", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects", Unit: "count", Better: "lower"},
	{Name: "cluster.recv_timeouts", Unit: "count", Better: "lower"},
	// wire: the frame codec and what it put on the sockets.
	{Name: "wire.write_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.read_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.write_seg_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.read_seg_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.internode_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.overhead_ratio", Unit: "ratio", Better: "lower"},
	// seal: AES-GCM sealing, opening and the crypto worker pool.
	{Name: "seal.seal_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "seal.open_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "seal.stream_seal_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "seal.small_seal_ns", Unit: "ns", Better: "lower"},
	{Name: "seal.pool_dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "seal.vs_stdlib_ratio", Unit: "ratio", Better: "higher"},
	{Name: "seal.segments_sealed_per_op", Unit: "count", Better: "lower"},
	{Name: "seal.segments_opened_per_op", Unit: "count", Better: "lower"},
	{Name: "seal.pool_saturated_per_kop", Unit: "count", Better: "lower"},
	// tune: alg=auto resolution.
	{Name: "tune.pick_ns", Unit: "ns", Better: "lower"},
	{Name: "tune.auto_distinct_algs", Unit: "count", Better: "higher"},
	{Name: "tune.auto_top_share", Unit: "ratio", Better: "lower"},
	// serve: the multi-tenant host.
	{Name: "serve.step_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.step_p50_us.1k", Unit: "us", Better: "lower"},
	{Name: "serve.step_p50_us.16k", Unit: "us", Better: "lower"},
	{Name: "serve.step_p50_us.256k", Unit: "us", Better: "lower"},
	{Name: "serve.allreduce_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.rejected_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "serve.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.reaps", Unit: "count", Better: "lower"},
	// sim (+netsim): the discrete-event simulator.
	{Name: "sim.wall_ms_per_sim", Unit: "ms", Better: "lower"},
	{Name: "sim.wall_ms_per_sim.small", Unit: "ms", Better: "lower"},
	{Name: "sim.wall_ms_per_sim.large", Unit: "ms", Better: "lower"},
	{Name: "sim.allocs_per_sim", Unit: "count", Better: "lower"},
	{Name: "sim.golden_mismatch", Unit: "count", Better: "lower"},
	// metrics: the always-on registry.
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "metrics.observe_ns", Unit: "ns", Better: "lower"},
	// gc: the Go runtime's collector under the workload.
	{Name: "gc.cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "gc.pause_us_per_op", Unit: "us", Better: "lower"},
	{Name: "gc.heap_live_MB", Unit: "MB", Better: "lower"},
}
