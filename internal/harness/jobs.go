package harness

import (
	"fmt"
	"sync"

	"deisago/internal/chaos"
	"deisago/internal/metrics"
	"deisago/internal/vtime"
)

// This file is the in-transit driver: N concurrent Heat2D+IPCA
// pipelines ("jobs") share one deisa platform — one fabric, one Dask
// cluster, one scheduler. A Run without jobs is one unnamed job. In a
// Run with jobs each job gets its own namespace (every task key, scatter
// key, Variable and queue is prefixed "<name>/") and its own fair-share
// weight on the scheduler's ready queue. Every job starts at once, at
// virtual time 0. The per-job pipelines are dataflow independent, so
// each job's analytics outputs are bit-identical whether it runs alone
// or beside other tenants — the per-tenant fingerprint checks exactly
// that.

// JobSpec describes one tenant pipeline of a Run with jobs.
type JobSpec struct {
	// Name is the tenant namespace: unique, and valid for
	// dask.ValidateTenant (non-empty, no '/', not "default"). Only the
	// one job of a Run without jobs is unnamed.
	Name string
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Ranks, Timesteps, BlockBytes size this job's pipeline; jobs may
	// differ (a mixed workload). Timesteps defaults to 10.
	Ranks      int
	Timesteps  int
	BlockBytes int64
}

// MultiJobConfig and RunMultiJob keep the benchmark module building:
// bench/workloads.go describes its multi-tenant workload with them. New
// code calls Run(cfg, jobs...); delete both once the benchmark does.
type MultiJobConfig struct {
	Jobs                   []JobSpec
	Workers                int
	Seed                   int64
	RealLocalX, RealLocalY int
	EnableAudit            bool
}

// RunMultiJob runs cfg's jobs on one DEISA3 platform: Run(cfg, jobs...).
func RunMultiJob(cfg MultiJobConfig) (*Result, error) {
	return Run(Config{System: DEISA3, Workers: cfg.Workers, Seed: cfg.Seed,
		RealLocalX: cfg.RealLocalX, RealLocalY: cfg.RealLocalY, EnableAudit: cfg.EnableAudit}, cfg.Jobs...)
}

// runJobs is the one in-transit driver, behind Run. It builds one
// platform for all jobs' ranks and one cluster on it, with cfg's
// switches, and runs each job with cfg's configuration at the job's size.
// A named job is a tenant, registered in spec order (so tenant indices
// and series are deterministic); a job named "" stays on the default
// tenant, so a run without jobs keeps no tenant series and its one job's
// Result is the run's. Each job runs in its namespace on its own
// goroutine and slice of the rank nodes. A job the chaos plan kills has
// its analytics consume only the timesteps before its kill step. The
// run-wide fields (makespan, Jain, metrics, trace, chaos and audit logs)
// are set on the returned Result only.
func runJobs(cfg Config, jobs []JobSpec) (*Result, error) {
	ranks := 0
	for _, j := range jobs {
		ranks += j.Ranks
	}
	p := newPlatform(cfg.Model, cfg.Workers, ranks, cfg.Seed)
	dc := p.newCluster(cfg)
	defer dc.Close()
	for _, j := range jobs {
		if j.Name == "" {
			continue
		}
		if err := dc.RegisterTenant(j.Name, j.Weight); err != nil {
			return nil, err
		}
	}
	var ctrl *chaos.Controller
	var killAt map[string]int
	if cfg.ChaosPlan != nil {
		var err error
		if ctrl, err = chaos.NewController(cfg.ChaosPlan, dc); err != nil {
			return nil, err
		}
		ctrl.InstallLinkFaults(p.machine.Fabric())
		killAt = ctrl.KillJobs()
	}

	results := make([]Result, len(jobs))
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	rankNodes := p.place.RankNodes
	for i, job := range jobs {
		jcfg := cfg
		jcfg.Ranks, jcfg.Timesteps, jcfg.BlockBytes = job.Ranks, job.Timesteps, job.BlockBytes
		nodes := rankNodes[:job.Ranks]
		rankNodes = rankNodes[job.Ranks:]
		steps := job.Timesteps
		killStep, killed := killAt[job.Name]
		if killed {
			steps = killStep
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := newEnv(p, jcfg, job.Name, nodes)
			var res *Result
			if err == nil {
				res, err = e.runJob(dc, ctrl, steps)
			}
			if err != nil {
				if job.Name != "" {
					err = fmt.Errorf("job %q: %w", job.Name, err)
				}
				errs <- err
				return
			}
			res.Weight, res.Killed, res.KilledStep = job.Weight, killed, killStep
			results[i] = *res
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	var out *Result
	if len(jobs) == 1 && jobs[0].Name == "" {
		out = &results[0]
	} else {
		out = &Result{Config: cfg, Jobs: results}
	}
	for i := range results {
		out.Makespan = vtime.MaxTime(out.Makespan, results[i].SimMakespan, results[i].AnalyticsTime)
	}
	if ctrl != nil {
		out.ChaosLog = ctrl.Log()
	}
	if dc.AuditEnabled() {
		out.AuditLog, out.AuditTruncated = dc.AuditLog(), dc.AuditTruncated()
	}
	out.Trace = dc.TraceEvents()
	dc.RecordUtilization(out.Makespan)
	p.machine.Fabric().RecordUtilization(out.Makespan)
	out.Metrics = p.reg.Snapshot()
	out.Jain = out.Metrics.Gauge(metrics.ID("scheduler", "fairness_jain"))
	return out, nil
}
