package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"deisago/internal/chaos"
	"deisago/internal/core"
	"deisago/internal/netsim"
)

// Chaos acceptance scenario: the Fig-2b analytics pipeline (DEISA3, the
// paper's full design) run twice — fault-free and under a fault plan —
// with the scheduler invariant auditor enabled, verifying the analytics
// outputs are bit-identical. Used by cmd/experiments -chaos-seed/-plan
// and by the acceptance test.

// ChaosScenarioConfig returns one weak-scaling point of the Fig-2b
// pipeline sized for chaos runs.
func ChaosScenarioConfig(o Options, ranks, workers int) Config {
	o.defaults()
	return Config{
		System:     DEISA3,
		Ranks:      ranks,
		Workers:    workers,
		Timesteps:  o.Timesteps,
		BlockBytes: o.BlockBytes,
		Seed:       1,
	}
}

// ChaosSpec bounds a random plan to the scenario: two worker kills (or
// as many as leave a survivor), one degraded link, one dropped and one
// delayed publish — the compound-failure shape of the acceptance
// criteria. When the scenario runs with worker memory governance
// (cfg.WorkerMemoryLimit > 0) the spec additionally draws one memlimit
// squeeze window scaled to the block size; ungoverned scenarios draw
// none, so plans from pre-memlimit seeds stay byte-identical.
func ChaosSpec(cfg Config) chaos.Spec {
	kills := 2
	if kills > cfg.Workers-1 {
		kills = cfg.Workers - 1
	}
	// Link endpoints are drawn from the first few machine nodes; a pair
	// that carries no scenario traffic degrades nothing, which is still
	// a valid (timing-only) fault.
	nodes := []netsim.NodeID{0, 1, 2, 3}
	spec := chaos.Spec{
		Workers:  cfg.Workers,
		Ranks:    cfg.Ranks,
		Steps:    cfg.Timesteps,
		Nodes:    nodes,
		Kills:    kills,
		Degrades: 1,
		Drops:    1,
		Delays:   1,
	}
	if cfg.WorkerMemoryLimit > 0 {
		spec.MemLimits = 1
		spec.MemBytes = cfg.BlockBytes
	}
	return spec
}

// ChaosReport compares a faulty run against its fault-free twin.
type ChaosReport struct {
	Plan      *chaos.Plan
	Clean     *Result
	Faulty    *Result
	Identical bool // analytics outputs bit-identical across the runs
}

// checkPlan rejects a plan (nil passes) that no run of the named jobs
// survives or honours, before anything is built. The one job of a run
// without jobs has no name, so jobs is empty there.
//   - A drop clause losing as many publish attempts as the bridges' retry
//     budget allows makes the publish give up, and the ranks and the
//     analytics would then wait forever on the lost block.
//   - A killjob must name a job of the run, at one of its steps.
//   - Worker kills need a run without jobs. On a shared platform a kill
//     trigger is a (rank, step) coordinate that every job shares, so host
//     order would decide which job fires it; and each job's republish
//     barrier runs after its own rank loop, so a kill could land after
//     another job's barrier has passed.
func checkPlan(plan *chaos.Plan, jobs []JobSpec) error {
	if plan == nil {
		return nil
	}
	budget := core.DefaultRetryPolicy().MaxAttempts
	for i, ev := range plan.Events {
		switch ev.Kind {
		case chaos.KindDropPublish:
			if ev.Count >= budget {
				return fmt.Errorf("harness: chaos event %d (%s) drops %d publish attempts, but the retry budget is %d",
					i, ev, ev.Count, budget)
			}
		case chaos.KindKillWorker:
			if len(jobs) > 0 {
				return fmt.Errorf("harness: runs with jobs do not support worker kills (event %d)", i)
			}
		case chaos.KindKillJob:
			j := slices.IndexFunc(jobs, func(j JobSpec) bool { return j.Name == ev.Tenant })
			if j < 0 {
				return fmt.Errorf("harness: killjob event %d targets unknown tenant %q", i, ev.Tenant)
			}
			if last := jobs[j].Timesteps - 1; ev.Step > last {
				return fmt.Errorf("harness: killjob event %d at step %d is past job %q's last step %d", i, ev.Step, ev.Tenant, last)
			}
		}
	}
	return nil
}

// RunChaosParallel executes cfg fault-free and under the plan (auditor on
// in the faulty run; any invariant violation panics) and compares the
// analytics outputs bitwise. The twin runs execute on a pool of the
// given width. They are independent simulations, so the report — fault
// log included — is identical for any width; 2 halves wall-clock.
func RunChaosParallel(cfg Config, plan *chaos.Plan, parallel int) (*ChaosReport, error) {
	var cr, fr *Result
	err := runPool(parallel, 2, func(i int) error {
		c := cfg
		if i == 0 {
			c.ChaosPlan = nil
			res, err := Run(c)
			if err != nil {
				return fmt.Errorf("harness: fault-free run: %w", err)
			}
			cr = res
			return nil
		}
		c.ChaosPlan = plan
		res, err := Run(c)
		if err != nil {
			return fmt.Errorf("harness: chaos run: %w", err)
		}
		fr = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &ChaosReport{
		Plan:      plan,
		Clean:     cr,
		Faulty:    fr,
		Identical: identicalAnalytics(cr, fr),
	}, nil
}

// identicalAnalytics reports whether two runs produced bit-identical
// analytics: the same WriteAnalytics stream, cut in the same places. Equal
// component ranks and streams give equal shapes, hence equal component
// data; equal singular-value counts then split the rest the same way.
func identicalAnalytics(a, b *Result) bool {
	cuts := func(r *Result) [3]int {
		rank := -1
		if r.Components != nil {
			rank = len(r.Components.Shape())
		}
		return [3]int{rank, len(r.SingularValues), len(r.ExplainedVariance)}
	}
	var x, y bytes.Buffer
	a.WriteAnalytics(&x)
	b.WriteAnalytics(&y)
	return cuts(a) == cuts(b) && bytes.Equal(x.Bytes(), y.Bytes())
}

// Format renders the report for the CLI.
func (r *ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos scenario: %s, %d ranks, %d workers, %d steps\n",
		r.Faulty.Config.System, r.Faulty.Config.Ranks, r.Faulty.Config.Workers,
		r.Faulty.Config.Timesteps)
	fmt.Fprintf(&b, "plan (seed %d): %s\n", r.Plan.Seed, r.Plan.String())
	b.WriteString("executed faults:\n")
	if len(r.Faulty.ChaosLog) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, e := range r.Faulty.ChaosLog {
		fmt.Fprintf(&b, "  %s\n", e.String())
	}
	fmt.Fprintf(&b, "publish retries: %d, blocks republished: %d\n",
		r.Faulty.Metrics.SumCounters("bridge/retries{"), r.Faulty.Metrics.SumCounters("bridge/republished{"))
	verdict := "IDENTICAL"
	if !r.Identical {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "analytics vs fault-free run: %s\n", verdict)
	return b.String()
}
