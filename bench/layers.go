package main

import (
	"runtime"
	"strings"
	"time"

	"deisago/internal/metrics"
)

// Shares of a traced pass's budget: a loop with observers off (counters,
// simulated occupancy, the harness layer), a loop with the tracer and the
// auditor on, and the probes, which split the rest evenly.
const (
	offShare = 0.35
	onShare  = 0.15
)

// gauges returns the mean and maximum of the final values of the gauges
// whose ID starts with prefix.
func gauges(s *metrics.Snapshot, prefix string) (mean, peak float64) {
	n := 0
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.ID, prefix) {
			mean += g.Value
			peak = max(peak, g.Value)
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, peak
}

// layerCounts reads one run's counts and simulated occupancy from the
// public metrics snapshots (one per platform the run built).
func layerCounts(o *outcome) map[string]float64 {
	m := map[string]float64{
		"sched.tasks_per_run":           float64(o.registered),
		"worker.tasks_executed_per_run": float64(o.tasks),
	}
	n := float64(len(o.snaps))
	for _, s := range o.snaps {
		m["metrics.instruments"] += float64(len(s.Counters) + len(s.Gauges) + len(s.Histograms))
		m["comm.transfers_per_run"] += float64(s.SumCounters("fabric/transfers"))
		m["comm.fabric_bytes_per_run"] += float64(s.SumCounters("fabric/bytes"))
		m["sched.msgs_per_run"] += float64(s.Counter("dask/total_scheduler_msgs"))
		m["worker.spill_events_per_run"] += float64(s.Counter("memory/spill_events"))
		m["bridge.blocks_shipped_per_run"] += float64(s.SumCounters("bridge/blocks_shipped"))
		m["bridge.blocks_filtered_per_run"] += float64(s.SumCounters("bridge/blocks_filtered"))
		m["bridge.retries_per_run"] += float64(s.SumCounters("bridge/retries"))
		m["storage.pfs_bytes_per_run"] += float64(s.SumCounters("pfs/bytes"))
		_, link := gauges(s, "link/utilization")
		m["comm.virt_link_util_max"] = max(m["comm.virt_link_util_max"], link)
		workers, _ := gauges(s, "worker/cpu_utilization")
		osts, _ := gauges(s, "pfs/ost_utilization")
		m["sched.virt_cpu_util"] += s.Gauge("scheduler/cpu_utilization") / n
		m["worker.virt_cpu_util_mean"] += workers / n
		m["storage.virt_ost_util"] += osts / n
	}
	return m
}

// measureLayers is the traced pass: it never runs while a timed loop does.
func measureLayers(w *workload, opt options, tr *tracer) (*section, error) {
	goroutines := runtime.NumGoroutine()
	root := tr.begin("trace:"+w.name, "harness", w.name, -1)
	defer func() { tr.end(root, 0) }()
	budget := func(share float64) time.Duration {
		return time.Duration(share * opt.seconds * float64(time.Second))
	}

	// Both loops share one set-up: by the second, only the observers'
	// own code is cold, and its first run is one sample of many.
	if _, err := w.setup(opt, false); err != nil {
		return nil, err
	}
	counts := map[string][]float64{}
	loop := func(name string, observers bool, share float64, observe func(*outcome)) *loopStats {
		id := tr.begin(name, "harness", w.name, root)
		st := w.loop(w.inputs(opt.seed, observers), opt, budget(share), observe)
		tr.end(id, st.runs)
		return st
	}
	off := loop("loop:observers-off", false, offShare, func(o *outcome) {
		for k, v := range layerCounts(o) {
			counts[k] = append(counts[k], v)
		}
	})
	on := loop("loop:observers-on", true, onShare, nil)

	p := &prober{tr: tr, w: w, seed: opt.seed, nsPerOp: map[string][]float64{},
		allocsPerOp: map[string][]float64{}, values: map[string]float64{}}
	if opt.runs == 0 {
		p.slice = budget(1-offShare-onShare) / time.Duration(len(hostTimedLayers))
	}
	for _, l := range hostTimedLayers {
		if err := p.probe(l.name, root, l.probe); err != nil {
			return nil, err
		}
	}

	sec := off.section()
	sec.Attempted += on.runs
	sec.Failed += on.failed
	if sec.FirstFailure == "" {
		sec.FirstFailure = on.firstFailure
	}
	m := sec.Metrics
	for k, v := range counts {
		m[k] = median(v)
	}
	for k, v := range p.values {
		m[k] = v
	}
	m["platform.build_us"], m["platform.build_allocs"] = p.us("platform.build"), p.allocs("platform.build")
	m["metrics.finalize_us"] = p.us("metrics.finalize")
	m["metrics.observers_overhead_frac"] = median(on.wallMs)/median(off.wallMs) - 1
	m["comm.transfer_ns"], m["comm.transfer_allocs"] = p.ns("comm.transfer"), p.allocs("comm.transfer")
	m["sched.submit_ns_per_task"], m["sched.submit_allocs_per_task"] = p.ns("sched.submit"), p.allocs("sched.submit")
	m["sched.drive_ns_per_task"], m["sched.drive_allocs_per_task"] = p.ns("sched.drive"), p.allocs("sched.drive")
	m["bridge.publish_us"], m["bridge.publish_allocs"] = p.us("bridge.publish"), p.allocs("bridge.publish")
	m["sim.step_us"] = p.us("sim.step")
	m["kernels.fit_us"], m["kernels.fold_us"] = p.us("kernels.fit"), p.us("kernels.fold")
	m["taskgraph.build_ns_per_task"] = p.ns("taskgraph.build")
	m["storage.write_us"], m["storage.read_us"] = p.us("storage.write"), p.us("storage.read")
	m["tenancy.drive_ns_per_task"] = p.ns("tenancy.drive")

	// est_share: a probe's cost per operation times the operations one
	// run performs, over the median run. The layers overlap (a publish
	// contains its transfers and its scheduler update) and ranks and
	// workers run on both cores, so the shares may sum past one.
	ops := w.ops()
	tasks := m["sched.tasks_per_run"]
	tenancy := 0.0
	if w.shared {
		tenancy = max(0, m["tenancy.drive_ns_per_task"]-m["sched.drive_ns_per_task"]) / 1e3 * tasks
	}
	runUs := median(off.wallMs) * 1e3
	for layer, us := range map[string]float64{
		"platform":  m["platform.build_us"] * ops.platforms,
		"metrics":   m["metrics.finalize_us"] * ops.platforms,
		"comm":      m["comm.transfer_ns"] / 1e3 * m["comm.transfers_per_run"],
		"sched":     (m["sched.submit_ns_per_task"] + m["sched.drive_ns_per_task"]) / 1e3 * tasks,
		"bridge":    m["bridge.publish_us"] * (m["bridge.blocks_shipped_per_run"] + m["bridge.blocks_filtered_per_run"]),
		"sim":       m["sim.step_us"] * ops.rankSteps,
		"kernels":   m["kernels.fit_us"]*ops.fits + m["kernels.fold_us"]*ops.folds,
		"taskgraph": m["taskgraph.build_ns_per_task"] / 1e3 * tasks,
		"storage":   m["storage.write_us"]*ops.chunkWrites + m["storage.read_us"]*ops.chunkReads,
		"tenancy":   tenancy,
	} {
		m[layer+".est_share"] = us / runUs
		m["harness.attributed_frac"] += us / runUs
	}

	m["harness.run_wall_tail_ms"], sec.Tail = off.tail()
	m["harness.round_spread_frac"] = off.roundSpread()
	m["harness.gc_cycles_per_run"] = float64(off.gcCycles) / float64(off.runs)
	m["harness.heap_sys_mib"] = float64(off.heapSys) / (1 << 20)
	// Goroutines of finished runs and probes may still be unwinding.
	for wait := time.Now(); runtime.NumGoroutine() > goroutines && time.Since(wait) < time.Second; {
		time.Sleep(time.Millisecond)
	}
	m["harness.goroutines_leaked"] = float64(max(0, runtime.NumGoroutine()-goroutines))
	return sec, nil
}
