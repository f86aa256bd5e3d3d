package harness

import (
	"fmt"
	"math"

	"deisago/internal/metrics"
)

// This file holds ablation studies for the design choices DESIGN.md
// calls out: the heartbeat interval (the DEISA1→2→3 axis), the
// per-timestep metadata refresh (the scheduler-overload mechanism),
// contract-based filtering, and the time-invariant worker preselection.
// Each returns a Table like the figure generators.

// AblationHeartbeat sweeps the bridge heartbeat interval on the
// external-task system, isolating the heartbeat's contribution to
// coupling time and scheduler load (the DEISA2 vs DEISA3 distinction).
func AblationHeartbeat(o Options, intervals []float64) (*Table, error) {
	o.defaults()
	if len(intervals) == 0 {
		intervals = []float64{1, 5, 30, 60, math.Inf(1)}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	// The two series measure different quantities (seconds vs message
	// counts), so each carries its own unit instead of a shared Y axis.
	tab := &Table{
		Title:  fmt.Sprintf("Ablation — heartbeat interval (external tasks, %d procs)", procs),
		XLabel: "Interval (s)",
		YLabel: "per series",
	}
	comm := Series{Label: "Coupling s/iter", Unit: "s/iter"}
	beats := Series{Label: "Heartbeat msgs", Unit: "msgs"}
	for _, iv := range intervals {
		if math.IsInf(iv, 1) {
			tab.XTicks = append(tab.XTicks, "inf")
		} else {
			tab.XTicks = append(tab.XTicks, fmt.Sprintf("%g", iv))
		}
		var comms, counts []float64
		for run := 0; run < o.Runs; run++ {
			res, err := Run(Config{
				System: DEISA3, Ranks: procs, Workers: procs / 2,
				Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
				Seed: int64(run*17 + 1), Model: o.Model,
				HeartbeatOverride: iv,
			})
			if err != nil {
				return nil, err
			}
			comms = append(comms, res.CommMean)
			// Heartbeats arrive at the scheduler as messages of kind
			// "heartbeat"; the registry is the source of truth.
			counts = append(counts,
				float64(res.Metrics.Counter(metrics.ID("scheduler", "messages", metrics.L("kind", "heartbeat")))))
		}
		m, s := meanStd(comms)
		comm.Mean = append(comm.Mean, m)
		comm.Std = append(comm.Std, s)
		m, s = meanStd(counts)
		beats.Mean = append(beats.Mean, m)
		beats.Std = append(beats.Std, s)
	}
	tab.Series = []Series{comm, beats}
	return tab, nil
}

// AblationMetadata sweeps the per-entry metadata processing cost on
// DEISA1, demonstrating that the per-timestep metadata refresh is what
// separates DEISA1 from DEISA3 (set it to ~0 and DEISA1's coupling cost
// collapses toward DEISA3's).
func AblationMetadata(o Options, entryCosts []float64) (*Table, error) {
	o.defaults()
	if len(entryCosts) == 0 {
		entryCosts = []float64{0, 2.5e-4, 5e-4, 1e-3, 2e-3}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	tab := &Table{
		Title:  fmt.Sprintf("Ablation — DEISA1 metadata entry cost (%d procs)", procs),
		XLabel: "Cost (ms/entry)",
		YLabel: "s/iter",
	}
	d1 := Series{Label: "DEISA1 coupling s/iter"}
	for _, ec := range entryCosts {
		tab.XTicks = append(tab.XTicks, fmt.Sprintf("%g", ec*1e3))
		var comms []float64
		for run := 0; run < o.Runs; run++ {
			m := o.Model
			m.MetaEntryCost = ec
			res, err := Run(Config{
				System: DEISA1, Ranks: procs, Workers: procs / 2,
				Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
				Seed: int64(run*17 + 1), Model: m,
			})
			if err != nil {
				return nil, err
			}
			comms = append(comms, res.CommMean)
		}
		m, s := meanStd(comms)
		d1.Mean = append(d1.Mean, m)
		d1.Std = append(d1.Std, s)
	}
	// Reference: DEISA3 at the same scale.
	var ref []float64
	for run := 0; run < o.Runs; run++ {
		res, err := Run(Config{
			System: DEISA3, Ranks: procs, Workers: procs / 2,
			Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
			Seed: int64(run*17 + 1), Model: o.Model,
		})
		if err != nil {
			return nil, err
		}
		ref = append(ref, res.CommMean)
	}
	m, s := meanStd(ref)
	d3 := Series{Label: "DEISA3 reference"}
	for range entryCosts {
		d3.Mean = append(d3.Mean, m)
		d3.Std = append(d3.Std, s)
	}
	tab.Series = []Series{d1, d3}
	return tab, nil
}

// AblationContract sweeps the fraction of the domain the analytics
// selects, demonstrating that contracts convert analytics selectivity
// into proportional traffic and coupling savings at the bridges.
func AblationContract(o Options, fractions []float64) (*Table, error) {
	o.defaults()
	if len(fractions) == 0 {
		fractions = []float64{0.25, 0.5, 0.75, 1.0}
	}
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	tab := &Table{
		Title:  fmt.Sprintf("Ablation — contract selectivity (DEISA3, %d procs)", procs),
		XLabel: "Selected fraction",
		YLabel: "per series",
	}
	sent := Series{Label: "Blocks shipped", Unit: "blocks"}
	traffic := Series{Label: "Fabric GiB", Unit: "GiB"}
	comm := Series{Label: "Coupling s/iter (mean over ranks)", Unit: "s/iter"}
	for _, f := range fractions {
		tab.XTicks = append(tab.XTicks, fmt.Sprintf("%.2f", f))
		var sents, bytes, comms []float64
		for run := 0; run < o.Runs; run++ {
			res, err := Run(Config{
				System: DEISA3, Ranks: procs, Workers: procs / 2,
				Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
				Seed: int64(run*17 + 1), Model: o.Model,
				SelectFraction: f,
			})
			if err != nil {
				return nil, err
			}
			sents = append(sents, float64(res.BlocksSent))
			bytes = append(bytes, float64(res.FabricBytes)/float64(GiB))
			comms = append(comms, res.CommMean)
		}
		m, s := meanStd(sents)
		sent.Mean, sent.Std = append(sent.Mean, m), append(sent.Std, s)
		m, s = meanStd(bytes)
		traffic.Mean, traffic.Std = append(traffic.Mean, m), append(traffic.Std, s)
		m, s = meanStd(comms)
		comm.Mean, comm.Std = append(comm.Mean, m), append(comm.Std, s)
	}
	tab.Series = []Series{sent, traffic, comm}
	return tab, nil
}

// AblationFuse compares submitting the analytics graph as-is against
// fusing linear chains first (dask.optimization.fuse): fewer tasks mean
// less scheduler work and fewer intermediate results.
func AblationFuse(o Options) (*Table, error) {
	o.defaults()
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	tab := &Table{
		Title:  fmt.Sprintf("Ablation — graph fusion (DEISA3, %d procs)", procs),
		XLabel: "Fusion",
		YLabel: "per series",
		XTicks: []string{"off", "on"},
	}
	analytics := Series{Label: "Analytics s", Unit: "s"}
	tasks := Series{Label: "Tasks registered", Unit: "tasks"}
	for _, fuse := range []bool{false, true} {
		var as, ts []float64
		for run := 0; run < o.Runs; run++ {
			res, err := Run(Config{
				System: DEISA3, Ranks: procs, Workers: procs / 2,
				Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
				Seed: int64(run*17 + 1), Model: o.Model,
				FuseGraphs: fuse,
			})
			if err != nil {
				return nil, err
			}
			as = append(as, res.AnalyticsTime)
			ts = append(ts, float64(res.Metrics.Counter("dask/tasks_registered")))
		}
		m, s := meanStd(as)
		analytics.Mean, analytics.Std = append(analytics.Mean, m), append(analytics.Std, s)
		m, s = meanStd(ts)
		tasks.Mean, tasks.Std = append(tasks.Mean, m), append(tasks.Std, s)
	}
	tab.Series = []Series{analytics, tasks}
	return tab, nil
}

// AblationPlacement compares the deisa time-invariant worker
// preselection against a scattered placement that moves each block's
// timeline across workers, showing why stable placement matters for the
// pipelined analytics.
func AblationPlacement(o Options) (*Table, error) {
	o.defaults()
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	tab := &Table{
		Title:  fmt.Sprintf("Ablation — worker preselection policy (DEISA3, %d procs)", procs),
		XLabel: "Policy",
		YLabel: "s",
		XTicks: []string{"preselected", "scattered"},
	}
	analytics := Series{Label: "Analytics s"}
	comm := Series{Label: "Coupling s/iter"}
	for _, scattered := range []bool{false, true} {
		var as, cs []float64
		for run := 0; run < o.Runs; run++ {
			res, err := Run(Config{
				System: DEISA3, Ranks: procs, Workers: procs / 2,
				Timesteps: o.Timesteps, BlockBytes: o.BlockBytes,
				Seed: int64(run*17 + 1), Model: o.Model,
				ScatteredPlacement: scattered,
			})
			if err != nil {
				return nil, err
			}
			as = append(as, res.AnalyticsTime)
			cs = append(cs, res.CommMean)
		}
		m, s := meanStd(as)
		analytics.Mean, analytics.Std = append(analytics.Mean, m), append(analytics.Std, s)
		m, s = meanStd(cs)
		comm.Mean, comm.Std = append(comm.Mean, m), append(comm.Std, s)
	}
	tab.Series = []Series{analytics, comm}
	return tab, nil
}
