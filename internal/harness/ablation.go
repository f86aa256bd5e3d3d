package harness

import (
	"fmt"
	"math"

	"deisago/internal/metrics"
)

// This file holds ablation studies for the design choices DESIGN.md
// calls out: the heartbeat interval (the DEISA1→2→3 axis), the
// per-timestep metadata refresh (the scheduler-overload mechanism),
// contract-based filtering, the time-invariant worker preselection and
// graph fusion. Each is a table view at the largest weak-scaling point
// whose runs use the ablation seed rule.

func ablationSeed(run int) int64 { return int64(run*17 + 1) }

// ablationAt is an ablation's x axis: the largest weak-scaling point of
// a system with set applied at each tick.
func ablationAt(o Options, set func(c *Config, x int)) func(sys System, x int) Config {
	return func(sys System, x int) Config {
		c := largest(o, sys)
		set(&c, x)
		return c
	}
}

// ablationHeartbeat sweeps the bridge heartbeat interval on the
// external-task system, isolating the heartbeat's contribution to
// coupling time and scheduler load (the DEISA2 vs DEISA3 distinction).
func ablationHeartbeat(o Options, intervals []float64) view {
	if len(intervals) == 0 {
		intervals = []float64{1, 5, 30, 60, math.Inf(1)}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	// The two series measure different quantities (seconds vs message
	// counts), so each carries its own unit instead of a shared Y axis.
	t := Table{
		Title:  fmt.Sprintf("Ablation — heartbeat interval (external tasks, %d procs)", procs),
		XLabel: "Interval (s)",
		YLabel: "per series",
	}
	for _, iv := range intervals {
		if math.IsInf(iv, 1) {
			t.XTicks = append(t.XTicks, "inf")
		} else {
			t.XTicks = append(t.XTicks, fmt.Sprintf("%g", iv))
		}
	}
	at := ablationAt(o, func(c *Config, x int) { c.HeartbeatOverride = intervals[x] })
	// Heartbeats arrive at the scheduler as messages of kind
	// "heartbeat"; the registry is the source of truth.
	beats := func(r *Result) float64 {
		return float64(r.Metrics.Counter(metrics.ID("scheduler", "messages", metrics.L("kind", "heartbeat"))))
	}
	return tableView(o, ablationSeed, t, at,
		curve{"Coupling s/iter", "s/iter", DEISA3, commMean},
		curve{"Heartbeat msgs", "msgs", DEISA3, beats})
}

// ablationMetadata sweeps the per-entry metadata processing cost on
// DEISA1, demonstrating that the per-timestep metadata refresh is what
// separates DEISA1 from DEISA3 (set it to ~0 and DEISA1's coupling cost
// collapses toward DEISA3's).
func ablationMetadata(o Options, entryCosts []float64) view {
	if len(entryCosts) == 0 {
		entryCosts = []float64{0, 2.5e-4, 5e-4, 1e-3, 2e-3}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	t := Table{
		Title:  fmt.Sprintf("Ablation — DEISA1 metadata entry cost (%d procs)", procs),
		XLabel: "Cost (ms/entry)",
		YLabel: "s/iter",
	}
	for _, ec := range entryCosts {
		t.XTicks = append(t.XTicks, fmt.Sprintf("%g", ec*1e3))
	}
	// Reference: DEISA3 at the same scale, the same runs at every tick.
	at := ablationAt(o, func(c *Config, x int) {
		if c.System == DEISA1 {
			c.Model.MetaEntryCost = entryCosts[x]
		}
	})
	return tableView(o, ablationSeed, t, at,
		curve{"DEISA1 coupling s/iter", "", DEISA1, commMean},
		curve{"DEISA3 reference", "", DEISA3, commMean})
}

// ablationContract sweeps the fraction of the domain the analytics
// selects, demonstrating that contracts convert analytics selectivity
// into proportional traffic and coupling savings at the bridges.
func ablationContract(o Options, fractions []float64) view {
	if len(fractions) == 0 {
		fractions = []float64{0.25, 0.5, 0.75, 1.0}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	t := Table{
		Title:  fmt.Sprintf("Ablation — contract selectivity (DEISA3, %d procs)", procs),
		XLabel: "Selected fraction",
		YLabel: "per series",
	}
	for _, f := range fractions {
		t.XTicks = append(t.XTicks, fmt.Sprintf("%.2f", f))
	}
	at := ablationAt(o, func(c *Config, x int) { c.SelectFraction = fractions[x] })
	return tableView(o, ablationSeed, t, at,
		curve{"Blocks shipped", "blocks", DEISA3, func(r *Result) float64 { return float64(r.BlocksSent) }},
		curve{"Fabric GiB", "GiB", DEISA3, func(r *Result) float64 {
			return float64(r.Metrics.SumCounters("fabric/bytes{")) / float64(GiB)
		}},
		curve{"Coupling s/iter (mean over ranks)", "s/iter", DEISA3, commMean})
}

// ablationFuse compares submitting the analytics graph as-is against
// fusing linear chains first (dask.optimization.fuse): fewer tasks mean
// less scheduler work and fewer intermediate results.
func ablationFuse(o Options) view {
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	return tableView(o, ablationSeed, Table{
		Title:  fmt.Sprintf("Ablation — graph fusion (DEISA3, %d procs)", procs),
		XLabel: "Fusion",
		YLabel: "per series",
		XTicks: []string{"off", "on"},
	}, ablationAt(o, func(c *Config, x int) { c.FuseGraphs = x == 1 }),
		curve{"Analytics s", "s", DEISA3, analyticsTime},
		curve{"Tasks registered", "tasks", DEISA3, func(r *Result) float64 {
			return float64(r.Metrics.Counter("dask/tasks_registered"))
		}})
}

// ablationPlacement compares the deisa time-invariant worker
// preselection against a scattered placement that moves each block's
// timeline across workers, showing why stable placement matters for the
// pipelined analytics.
func ablationPlacement(o Options) view {
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	return tableView(o, ablationSeed, Table{
		Title:  fmt.Sprintf("Ablation — worker preselection policy (DEISA3, %d procs)", procs),
		XLabel: "Policy",
		YLabel: "s",
		XTicks: []string{"preselected", "scattered"},
	}, ablationAt(o, func(c *Config, x int) { c.ScatteredPlacement = x == 1 }),
		curve{"Analytics s", "", DEISA3, analyticsTime},
		curve{"Coupling s/iter", "", DEISA3, commMean})
}
