package main

// perLayer names one per-layer metric of the traced run.
type perLayer struct{ name, unit string }

// stepTypes are the module types whose mean Step time is reported as
// module.step_ns.<type>: the five with the most Step time in total on
// the dense graphs of graph seeds 1 to 12, each present in all twelve.
var stepTypes = []string{"min", "sum", "max", "hash-sink", "multi-collector"}

// perLayerMetrics lists every metric of a traced run, in the order of
// BENCHMARK.json. A layer a workload does not exercise reads 0.
var perLayerMetrics = func() []perLayer {
	ms := []perLayer{
		{"core.ns_per_exec", "ns"},
		{"core.step_share", "ratio"},
		{"core.lock_wait_ns_per_exec", "ns"},
		{"core.max_queue_len", "count"},
		{"core.execs_per_phase", "count"},
		{"core.msgs_per_phase", "count"},
		{"module.step_ns_per_exec", "ns"},
		{"baseline.phases_per_s", "1/s"},
		{"core.speedup_vs_sequential", "ratio"},
		{"distrib.cut_edges", "count"},
		{"distrib.cross_values_per_phase", "count"},
		{"distrib.link_blocked_share", "ratio"},
		{"distrib.send_blocks_per_kphase", "count"},
		{"distrib.machine_exec_skew", "ratio"},
		{"distrib.plan_ms", "ms"},
		{"distrib.switches", "count"},
		{"distrib.moved_per_switch", "count"},
		{"distrib.pause_ms_p50", "ms"},
		{"distrib.pause_ms_max", "ms"},
		{"distrib.handoff_bytes_per_switch", "B"},
		{"netwire.bytes_per_value", "B"},
		{"netwire.frames_per_flush", "count"},
		{"netwire.send_ns_per_frame", "ns"},
		{"netwire.flush_ns_per_flush", "ns"},
		{"wal.file_bytes", "B"},
		{"runtime.gc_cycles_per_kphase", "count"},
		{"runtime.gc_pause_us_p99", "us"},
		{"setup.build_ms", "ms"},
		{"setup.first_result_ms", "ms"},
		{"latency_p99_us", "us"},
		{"bench.gen_late_us_p99", "us"},
		{"bench.latency_samples", "count"},
		{"bench.trace_overhead", "ratio"},
		{"host.calib_ns", "ns"},
	}
	for _, t := range stepTypes {
		ms = append(ms, perLayer{"module.step_ns." + t, "ns"})
	}
	return ms
}()
