package main

// metricKind says where a metric is reported.
type metricKind int

const (
	// gated metrics exist on every workload: BENCHMARK.json lists them
	// under end_to_end and the driver holds them to their bounds.
	gated metricKind = iota
	// specific metrics are end-to-end outputs only some workloads have
	// (0 elsewhere). BENCHMARK.json must report every end_to_end metric on
	// every workload, so it lists these under per_layer; -compare still
	// holds them to their bounds.
	specific
	// layer metrics describe one layer and have no bound.
	layer
)

// metricDef declares one metric. The list below, BENCHMARK.json and
// README.md must agree; the smoke test checks the first two.
type metricDef struct {
	name, unit string
	kind       metricKind
	better     string  // "lower" or "higher"
	bound      float64 // share of the baseline by which it may worsen
}

// Units: s, ms, us, ns are host time; sim_s is simulated (virtual) time;
// frac is a share of one; x is a ratio of two simulated quantities.
var metricDefs = []metricDef{
	{"setup_s", "s", gated, "lower", 0.25},
	{"run_wall_p50_ms", "ms", gated, "lower", 0.10},
	{"tasks_per_s", "1/s", gated, "higher", 0.10},
	{"allocs_per_run", "count", gated, "lower", 0.02},
	{"alloc_kib_per_run", "KiB", gated, "lower", 0.02},
	{"virt_sim_s_per_iter", "sim_s", gated, "lower", 0.03},
	{"virt_analytics_s", "sim_s", gated, "lower", 0.03},
	{"virt_makespan_s", "sim_s", gated, "lower", 0.03},

	{"failed_frac", "frac", specific, "lower", 0},
	{"virt_coupling_s_per_iter", "sim_s", specific, "lower", 0.03},
	{"ratio_sim_deisa1_over_deisa3", "x", specific, "higher", 0.05},
	{"ratio_analytics_deisa1_over_deisa3", "x", specific, "higher", 0.05},
	{"ratio_cost_posthoc_over_deisa3", "x", specific, "higher", 0.05},
	{"ratio_analytics_cost_posthoc_over_deisa3", "x", specific, "higher", 0.05},
	{"jain_fairness", "frac", specific, "higher", 0.01},

	{"platform.build_us", "us", layer, "lower", 0},
	{"platform.build_allocs", "count", layer, "lower", 0},
	{"platform.est_share", "frac", layer, "lower", 0},
	{"metrics.finalize_us", "us", layer, "lower", 0},
	{"metrics.instruments", "count", layer, "lower", 0},
	{"metrics.observers_overhead_frac", "frac", layer, "lower", 0},
	{"metrics.est_share", "frac", layer, "lower", 0},
	{"comm.transfer_ns", "ns", layer, "lower", 0},
	{"comm.transfer_allocs", "count", layer, "lower", 0},
	{"comm.transfers_per_run", "count", layer, "lower", 0},
	{"comm.fabric_bytes_per_run", "B", layer, "lower", 0},
	{"comm.virt_link_util_max", "frac", layer, "lower", 0},
	{"comm.est_share", "frac", layer, "lower", 0},
	{"sched.submit_ns_per_task", "ns", layer, "lower", 0},
	{"sched.submit_allocs_per_task", "count", layer, "lower", 0},
	{"sched.drive_ns_per_task", "ns", layer, "lower", 0},
	{"sched.drive_allocs_per_task", "count", layer, "lower", 0},
	{"sched.msgs_per_run", "count", layer, "lower", 0},
	{"sched.tasks_per_run", "count", layer, "lower", 0},
	{"sched.virt_cpu_util", "frac", layer, "lower", 0},
	{"sched.est_share", "frac", layer, "lower", 0},
	{"worker.tasks_executed_per_run", "count", layer, "lower", 0},
	{"worker.virt_cpu_util_mean", "frac", layer, "higher", 0},
	{"worker.spill_events_per_run", "count", layer, "lower", 0},
	{"bridge.publish_us", "us", layer, "lower", 0},
	{"bridge.publish_allocs", "count", layer, "lower", 0},
	{"bridge.blocks_shipped_per_run", "count", layer, "lower", 0},
	{"bridge.blocks_filtered_per_run", "count", layer, "lower", 0},
	{"bridge.retries_per_run", "count", layer, "lower", 0},
	{"bridge.est_share", "frac", layer, "lower", 0},
	{"sim.step_us", "us", layer, "lower", 0},
	{"sim.virt_step_s", "sim_s", layer, "lower", 0},
	{"sim.est_share", "frac", layer, "lower", 0},
	{"kernels.fit_us", "us", layer, "lower", 0},
	{"kernels.fold_us", "us", layer, "lower", 0},
	{"kernels.fit_flops", "flop", layer, "lower", 0},
	{"kernels.est_share", "frac", layer, "lower", 0},
	{"taskgraph.build_ns_per_task", "ns", layer, "lower", 0},
	{"taskgraph.est_share", "frac", layer, "lower", 0},
	{"storage.write_us", "us", layer, "lower", 0},
	{"storage.read_us", "us", layer, "lower", 0},
	{"storage.pfs_bytes_per_run", "B", layer, "lower", 0},
	{"storage.virt_ost_util", "frac", layer, "lower", 0},
	{"storage.est_share", "frac", layer, "lower", 0},
	{"tenancy.drive_ns_per_task", "ns", layer, "lower", 0},
	{"tenancy.est_share", "frac", layer, "lower", 0},
	{"harness.run_wall_tail_ms", "ms", layer, "lower", 0},
	{"harness.round_spread_frac", "frac", layer, "lower", 0},
	{"harness.gc_cycles_per_run", "count", layer, "lower", 0},
	{"harness.heap_sys_mib", "MiB", layer, "lower", 0},
	{"harness.goroutines_leaked", "count", layer, "lower", 0},
	{"harness.attributed_frac", "frac", layer, "higher", 0},
}

// hostTimedLayers are the layers with a host-time probe, in the order
// their probes run; each has an est_share.
var hostTimedLayers = []struct {
	name  string
	probe func(*prober) error
}{
	{"platform", probePlatform},
	{"metrics", probeMetrics},
	{"comm", probeComm},
	{"sched", probeSched},
	{"bridge", probeBridge},
	{"sim", probeSim},
	{"kernels", probeKernels},
	{"taskgraph", probeTaskgraph},
	{"storage", probeStorage},
	{"tenancy", probeTenancy},
}

// defsOf returns the definitions of the given kinds, in declaration order.
func defsOf(kinds ...metricKind) []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		for _, k := range kinds {
			if d.kind == k {
				out = append(out, d)
			}
		}
	}
	return out
}
