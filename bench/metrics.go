package main

// metricSpec names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds; the
// package test holds the two together.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the simulator sees, measured with every
// observer off. The wall-clock bounds are wide because this class of
// sandbox runs an unchanged binary up to a quarter slower for seconds at a
// time (see README.md, "Noise"); the counts are tight.
var endToEnd = []metricSpec{
	{"job_wall_s", "s", "lower", 0.25},
	{"sim_msgs_per_s", "msg/s", "higher", 0.25},
	{"sim_payload_mb_per_s", "MB/s", "higher", 0.25},
	{"allocs_per_job", "count", "lower", 0.01},
	{"alloc_bytes_per_job", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
	{"setup_allocs", "count", "lower", 0.01},
	{"setup_live_bytes", "B", "lower", 0.01},
}

// exact are simulated outputs. They repeat exactly, or the run is not
// correct; they are printed with the end-to-end metrics, and listed with the
// per-layer ones in BENCHMARK.json because a bound of zero on a value that
// is itself zero cannot be expressed there.
var exact = []metricSpec{
	{"sim_finish_us", "us", "lower", 0},
	{"sim_err_pct", "%", "lower", 0},
	{"fail_share", "ratio", "lower", 0},
}

func lower(unit string, names ...string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{name: n, unit: unit, better: "lower"}
	}
	return out
}

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// ladderSpecs are the layer-ladder metrics (layers.go).
var ladderSpecs = concat(
	lower("ns", "sim.timed_ns_per_event", "sim.zero_delay_ns_per_event", "sim.deep_heap_ns_per_event",
		"sim.proc_switch_ns", "sim.kernel_window_ns", "sim.kernel_post_ns"),
	lower("us", "topo.build_us"),
	lower("ns", "wire.crc32_ns_per_kb",
		"fabric.classic_ns_per_msg", "fabric.classic_ns_per_mb", "fabric.hopwise_ns_per_msg_hop"),
	lower("count", "fabric.classic_events_per_msg", "fabric.classic_allocs_per_msg",
		"fabric.hopwise_events_per_msg_hop", "fabric.hopwise_allocs_per_msg"),
	lower("ns", "fw.ns_per_msg", "fw.self_ns_per_msg"),
	lower("count", "fw.events_per_msg", "fw.allocs_per_msg"),
	lower("ns", "core.match_ns_depth1", "core.match_ns_depth64", "nal.refnal_put_ns"),
	lower("count", "core.allocs_per_match", "nal.refnal_events_per_msg"),
	lower("ns", "portals.put_ns_per_msg", "portals.get_ns_per_msg", "portals.put_1k_ns_per_msg"),
	lower("count", "portals.put_events_per_msg", "portals.put_allocs_per_msg"),
	lower("ns", "mpi.mpich1_ns_per_msg", "mpi.mpich2_ns_per_msg", "mpi.self_ns_per_msg", "mpi.rendezvous_ns_per_msg"),
	lower("us", "machine.node_build_us", "machine.pair_build_us"),
	lower("count", "machine.node_allocs"),
	lower("B", "machine.node_live_bytes"),
)

// tracedSpecs are the metrics of the traced job run (trace.go, cpuprof.go).
var tracedSpecs = concat(
	lower("%", "trace.overhead_pct"),
	lower("s", "span.job_s", "span.machine_run_s", "span.nonrun_s",
		"span.netpipe_put_s", "span.netpipe_get_s", "span.netpipe_mpich1_s", "span.netpipe_mpich2_s"),
	lower("count", "sim.events", "sim.events_per_msg"),
	lower("ns", "sim.ns_per_event"),
	[]metricSpec{{name: "sim.events_per_s", unit: "1/s", better: "higher"}},
	lower("count", "sim.windows"),
	[]metricSpec{{name: "sim.events_per_window", unit: "count", better: "higher"},
		{name: "sim.kernel.exec_share", unit: "ratio", better: "higher"}},
	lower("ratio", "sim.kernel.drain_share", "sim.kernel.wait_share"),
	lower("%", "sim.kernel.imbalance_pct"),
	lower("ratio", "sim.kernel.straggler_max_share"),
	lower("count", "fabric.msgs", "fabric.chunks", "fabric.link_retries",
		"fabric.faults_injected", "fabric.faults_recovered", "fabric.faults_condemned",
		"fw.headers_rx", "fw.msgs_tx", "fw.events_posted", "fw.tx_per_msg",
		"oskernel.interrupts", "oskernel.coalesced", "oskernel.irq_per_msg"),
	lower("us", "model.msg_e2e_us_p50", "model.msg_e2e_us_p99", "model.hol_wait_us_p99"),
	lower("ratio", "cpu.sim_share", "cpu.fabric_share", "cpu.fw_share", "cpu.nal_share", "cpu.core_share",
		"cpu.mpi_share", "cpu.machine_share", "cpu.oskernel_share", "cpu.seastar_share", "cpu.wire_share",
		"cpu.telemetry_share", "cpu.experiments_share", "cpu.gc_share", "cpu.sched_share", "cpu.other_share"),
	lower("B", "harness.peak_heap_bytes"),
	lower("count", "harness.gc_count"),
	lower("ratio", "harness.gc_cpu_share"),
)

// perLayer is everything a --trace 1 run prints.
var perLayer = concat(ladderSpecs, tracedSpecs, exact)
