package harness

import (
	"fmt"
	"slices"
	"sync"

	"deisago/internal/chaos"
	"deisago/internal/dask"
	"deisago/internal/metrics"
	"deisago/internal/multijob"
	"deisago/internal/netsim"
	"deisago/internal/vtime"
)

// This file is the in-transit driver: N concurrent Heat2D+IPCA
// pipelines ("jobs") share one deisa platform — one fabric, one Dask
// cluster, one scheduler. A single-job Run is one unnamed job. In a
// multi-tenant run each job gets its own namespace (every task key,
// scatter key, Variable and queue is prefixed "<name>/") and its own
// fair-share weight on the scheduler's ready queue; every job's start is
// gated by a multijob.Plane admission ticket. The per-job pipelines are
// dataflow independent, so each job's analytics outputs are
// bit-identical whether the jobs run serially (MaxConcurrent=1) or fully
// interleaved — the per-tenant fingerprint checks exactly that.

// JobSpec describes one tenant pipeline of a multi-job run.
type JobSpec struct {
	// Name is the tenant namespace: unique, and valid for
	// dask.ValidateTenant (non-empty, no '/', not "default"). Only the
	// one job of a single-job Run is unnamed.
	Name string
	// Weight is the fair-share weight (default 1).
	Weight float64
	// Ranks, Timesteps, BlockBytes size this job's pipeline; jobs may
	// differ (a mixed workload).
	Ranks      int
	Timesteps  int
	BlockBytes int64
}

// estimate is the managed-memory estimate the job declares at
// admission: Ranks·Timesteps·BlockBytes, the job's whole scatter
// footprint (the worst case, with nothing yet released).
func (j *JobSpec) estimate() int64 {
	return int64(j.Ranks) * int64(j.Timesteps) * j.BlockBytes
}

// MultiJobConfig describes a multi-tenant run.
type MultiJobConfig struct {
	Jobs    []JobSpec
	Workers int
	// Seed controls the allocation and link jitter, as Config.Seed.
	Seed  int64
	Model Model
	// RealLocalX/Y size each job's in-memory block; defaults 16×8.
	RealLocalX, RealLocalY int

	// MaxConcurrent / TenantBudget / ClusterBudget feed the admission
	// plane (multijob.Limits); zeros mean unlimited.
	MaxConcurrent int
	TenantBudget  int64
	ClusterBudget int64

	// WorkerMemoryLimit, when positive, enables per-worker memory
	// governance on the shared cluster (spill + scatter backpressure).
	WorkerMemoryLimit int64
	// ChaosPlan, when non-nil, runs the mixed workload under fault
	// injection. killjob events cancel the named tenant's analytics from
	// the given step; memlimit/drop/delay/degrade work as in single-job
	// runs. Worker kills are rejected: their republish barrier would
	// have to span jobs whose admission windows never overlap.
	ChaosPlan *chaos.Plan
	// TieBreak redirects benign scheduling ties (schedule exploration);
	// nil keeps the production rules.
	TieBreak dask.TieBreaker
	// EnableAudit switches the scheduler invariant auditor on (the
	// tenant-isolation invariant included); ChaosPlan enables it anyway.
	EnableAudit bool
}

func (c *MultiJobConfig) defaults() {
	c.Jobs = slices.Clone(c.Jobs) // fill the defaults in a copy, not the caller's specs
	if c.RealLocalX == 0 {
		c.RealLocalX = 16
	}
	if c.RealLocalY == 0 {
		c.RealLocalY = 8
	}
	if c.Model.CoresPerNode == 0 {
		c.Model = DefaultModel()
	}
	for i := range c.Jobs {
		if c.Jobs[i].Weight == 0 {
			c.Jobs[i].Weight = 1
		}
		if c.Jobs[i].Timesteps == 0 {
			c.Jobs[i].Timesteps = 10
		}
	}
}

// Validate reports why RunMultiJob would refuse the configuration, before
// anything is built. RunMultiJob fills zero job timesteps and the zero
// Model first, so call it on a configuration that sets them.
func (c *MultiJobConfig) Validate() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("harness: multi-job run needs at least one job")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("harness: workers must be positive")
	}
	if c.MaxConcurrent < 0 || c.TenantBudget < 0 || c.ClusterBudget < 0 {
		return fmt.Errorf("harness: admission limits must not be negative (max concurrent %d, tenant budget %d, cluster budget %d)",
			c.MaxConcurrent, c.TenantBudget, c.ClusterBudget)
	}
	seen := map[string]bool{}
	for _, j := range c.Jobs {
		if err := dask.ValidateTenant(j.Name, j.Weight); err != nil {
			return err
		}
		if seen[j.Name] {
			return fmt.Errorf("harness: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Ranks <= 0 || j.Timesteps <= 0 || j.BlockBytes <= 0 {
			return fmt.Errorf("harness: job %q needs positive ranks, timesteps and block size", j.Name)
		}
	}
	return checkPlan(c.ChaosPlan, c.Jobs)
}

// MultiJobResult is the outcome of a multi-tenant run (and, inside Run,
// of a single-job in-transit run, whose one Result takes the run-wide
// fields).
type MultiJobResult struct {
	Jobs []Result // in JobSpec order
	// Jain is Jain's fairness index over weight-normalized service: the
	// final value of the scheduler/fairness_jain gauge. Per-tenant
	// service (scheduler/tenant_pops, scheduler/tenant_share) is in
	// Metrics.
	Jain      float64
	Admission multijob.Stats
	ChaosLog  []chaos.LogEntry
	Metrics   *metrics.Snapshot
	Makespan  float64
	// AuditLog is the shared scheduler's transition log when the
	// invariant auditor ran (EnableAudit or ChaosPlan): the interleaved
	// transitions of every tenant, for offline reference-model replay.
	AuditLog       []dask.Transition
	AuditTruncated int64
}

// Job returns the named job's result, or nil.
func (r *MultiJobResult) Job(name string) *Result {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// RunMultiJob executes a mixed workload of concurrent DEISA3 pipelines
// on one shared platform.
func RunMultiJob(cfg MultiJobConfig) (*MultiJobResult, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := Config{
		System:            DEISA3,
		Workers:           cfg.Workers,
		Seed:              cfg.Seed,
		RealLocalX:        cfg.RealLocalX,
		RealLocalY:        cfg.RealLocalY,
		Model:             cfg.Model,
		WorkerMemoryLimit: cfg.WorkerMemoryLimit,
		ChaosPlan:         cfg.ChaosPlan,
		TieBreak:          cfg.TieBreak,
		EnableAudit:       cfg.EnableAudit,
	}
	lim := multijob.Limits{
		MaxConcurrent: cfg.MaxConcurrent,
		TenantBudget:  cfg.TenantBudget,
		ClusterBudget: cfg.ClusterBudget,
	}
	return runJobs(base, lim, cfg.Jobs)
}

// runJobs is the one in-transit driver, behind Run and RunMultiJob. It
// builds one platform for all jobs' ranks and one cluster on it, with
// base's switches, and runs each job with base's configuration at the
// job's size. A named job is a tenant, registered in spec order (so
// tenant indices and series are deterministic); a job named "" stays on
// the default tenant, so a single-job run keeps no tenant series. Each
// job waits for its admission ticket under lim, then runs on its own
// goroutine and slice of the rank nodes. A job the chaos plan kills has
// its analytics consume only the timesteps before its kill step.
func runJobs(base Config, lim multijob.Limits, jobs []JobSpec) (*MultiJobResult, error) {
	ranks := 0
	for _, j := range jobs {
		ranks += j.Ranks
	}
	p := newPlatform(base.Model, base.Workers, ranks, base.Seed)
	dc := p.newCluster(base)
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
	if base.ChaosPlan != nil {
		var err error
		if ctrl, err = chaos.NewController(base.ChaosPlan, dc); err != nil {
			return nil, err
		}
		ctrl.InstallLinkFaults(p.machine.Fabric())
		killAt = ctrl.KillJobs()
	}

	plane := multijob.NewPlane(lim)
	out := &MultiJobResult{Jobs: make([]Result, len(jobs))}
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	rankNodes := p.place.RankNodes
	for i, job := range jobs {
		cfg := base
		cfg.Ranks, cfg.Timesteps, cfg.BlockBytes = job.Ranks, job.Timesteps, job.BlockBytes
		nodes := rankNodes[:job.Ranks]
		rankNodes = rankNodes[job.Ranks:]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.runAdmitted(plane, dc, ctrl, cfg, job, nodes, killAt)
			if err != nil {
				if job.Name != "" {
					err = fmt.Errorf("job %q: %w", job.Name, err)
				}
				errs <- err
				return
			}
			out.Jobs[i] = *res
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	out.Admission = plane.Stats()
	if ctrl != nil {
		out.ChaosLog = ctrl.Log()
	}
	if dc.AuditEnabled() {
		out.AuditLog, out.AuditTruncated = dc.AuditLog(), dc.AuditTruncated()
	}
	trace := dc.TraceEvents() // nil unless base.EnableTrace, which only Run sets
	for i := range out.Jobs {
		j := &out.Jobs[i]
		j.Trace = trace
		out.Makespan = vtime.MaxTime(out.Makespan, j.SimMakespan, j.AnalyticsTime)
	}
	dc.RecordUtilization(out.Makespan)
	p.machine.Fabric().RecordUtilization(out.Makespan)
	out.Metrics = p.reg.Snapshot()
	out.Jain = out.Metrics.Gauge(metrics.ID("scheduler", "fairness_jain"))
	return out, nil
}

// runAdmitted waits for job's admission ticket, then runs it with cfg in
// its namespace on rankNodes. A job in killAt has its analytics consume
// only the timesteps before its kill step.
func (p *platform) runAdmitted(plane *multijob.Plane, dc *dask.Cluster, ctrl *chaos.Controller,
	cfg Config, job JobSpec, rankNodes []netsim.NodeID, killAt map[string]int) (*Result, error) {
	release, err := plane.Admit(job.Name, job.estimate())
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := newEnv(p, cfg, job.Name, rankNodes)
	if err != nil {
		return nil, err
	}
	steps := job.Timesteps
	killStep, killed := killAt[job.Name]
	if killed {
		steps = killStep
	}
	res, err := e.runJob(dc, ctrl, steps)
	if err != nil {
		return nil, err
	}
	res.Weight, res.Killed, res.KilledStep = job.Weight, killed, killStep
	return res, nil
}
