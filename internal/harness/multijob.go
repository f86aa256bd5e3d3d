package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"deisago/internal/chaos"
	"deisago/internal/dask"
	"deisago/internal/metrics"
	"deisago/internal/multijob"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/vtime"
)

// This file is the multi-tenant driver: N concurrent Heat2D+IPCA
// pipelines ("jobs") share one deisa platform — one fabric, one Dask
// cluster, one scheduler. Each job gets its own namespace (every task
// key, scatter key, Variable and queue is prefixed "<name>/"), its own
// fair-share weight on the scheduler's ready queue, and its start is
// gated by a multijob.Plane admission ticket. Each job runs the same
// in-transit driver as a single-job Run (env.runJob). The per-job pipelines
// are dataflow independent, so each job's analytics outputs are
// bit-identical whether the jobs run serially (MaxConcurrent=1) or
// fully interleaved — the per-tenant fingerprint checks exactly that.

// JobSpec describes one tenant pipeline of a multi-job run.
type JobSpec struct {
	// Name is the tenant namespace: unique, and valid for
	// dask.ValidateTenant (non-empty, no '/', not "default").
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

func (c *MultiJobConfig) validate() error {
	if len(c.Jobs) == 0 {
		return fmt.Errorf("harness: multi-job run needs at least one job")
	}
	if c.Workers <= 0 {
		return fmt.Errorf("harness: workers must be positive")
	}
	steps := map[string]int{}
	for _, j := range c.Jobs {
		if err := dask.ValidateTenant(j.Name, j.Weight); err != nil {
			return err
		}
		if _, dup := steps[j.Name]; dup {
			return fmt.Errorf("harness: duplicate job name %q", j.Name)
		}
		steps[j.Name] = j.Timesteps
		if j.Ranks <= 0 || j.Timesteps <= 0 || j.BlockBytes <= 0 {
			return fmt.Errorf("harness: job %q needs positive ranks, timesteps and block size", j.Name)
		}
	}
	if err := checkPlan(c.ChaosPlan); err != nil {
		return err
	}
	if c.ChaosPlan != nil {
		for i, ev := range c.ChaosPlan.Events {
			if ev.Kind == chaos.KindKillWorker {
				return fmt.Errorf("harness: multi-job runs do not support worker kills (event %d)", i)
			}
			if ev.Kind != chaos.KindKillJob {
				continue
			}
			t, ok := steps[ev.Tenant]
			if !ok {
				return fmt.Errorf("harness: killjob event %d targets unknown tenant %q", i, ev.Tenant)
			}
			if ev.Step >= t {
				return fmt.Errorf("harness: killjob event %d at step %d is past job %q's last step %d", i, ev.Step, ev.Tenant, t-1)
			}
		}
	}
	return nil
}

// JobResult is one tenant's outcome.
type JobResult struct {
	Name   string
	Weight float64
	// Killed/KilledStep report a killjob cancellation: the analytics
	// consumed only timesteps before KilledStep.
	Killed     bool
	KilledStep int

	Components        *ndarray.Array
	SingularValues    []float64
	ExplainedVariance []float64

	BlocksSent, BlocksSkipped int64
	SimMakespan               float64
	AnalyticsTime             float64

	// Fingerprint digests the job's analytics values and bridge
	// counters. It is a pure function of the job spec (and its kill
	// step), independent of what other tenants share the platform or of
	// the admission interleaving.
	Fingerprint string
}

// MultiJobResult is the outcome of a multi-tenant run.
type MultiJobResult struct {
	Jobs []JobResult // in JobSpec order
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
func (r *MultiJobResult) Job(name string) *JobResult {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// fingerprint digests the fields that must be reproducible.
func (j *JobResult) fingerprint() string {
	h := sha256.New()
	le := binary.LittleEndian
	var buf [8]byte
	writeF := func(v float64) {
		le.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeI := func(v int64) {
		le.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(j.Name))
	if j.Killed {
		writeI(int64(j.KilledStep))
	} else {
		writeI(-1)
	}
	if j.Components != nil {
		for _, d := range j.Components.Shape() {
			writeI(int64(d))
		}
		for _, v := range j.Components.Data() {
			writeF(v)
		}
	}
	for _, v := range j.SingularValues {
		writeF(v)
	}
	for _, v := range j.ExplainedVariance {
		writeF(v)
	}
	writeI(j.BlocksSent)
	writeI(j.BlocksSkipped)
	return hex.EncodeToString(h.Sum(nil))
}

// RunMultiJob executes a mixed workload of concurrent pipelines on one
// shared platform.
func RunMultiJob(cfg MultiJobConfig) (*MultiJobResult, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	totalRanks := 0
	for _, j := range cfg.Jobs {
		totalRanks += j.Ranks
	}
	p := newPlatform(cfg.Model, cfg.Workers, totalRanks, cfg.Seed)
	dc := p.newCluster(cfg.WorkerMemoryLimit, cfg.TieBreak)
	defer dc.Close()
	if cfg.EnableAudit || cfg.ChaosPlan != nil {
		dc.EnableAudit()
	}
	// Registration order = spec order, so tenant indices, instrument
	// creation, and the tenant series are deterministic.
	for _, j := range cfg.Jobs {
		if err := dc.RegisterTenant(j.Name, j.Weight); err != nil {
			return nil, err
		}
	}

	var ctrl *chaos.Controller
	killAt := map[string]int{}
	if cfg.ChaosPlan != nil {
		var err error
		ctrl, err = chaos.NewController(cfg.ChaosPlan, dc)
		if err != nil {
			return nil, err
		}
		ctrl.InstallLinkFaults(p.machine.Fabric())
		killAt = ctrl.KillJobs()
	}

	plane := multijob.NewPlane(multijob.Limits{
		MaxConcurrent: cfg.MaxConcurrent,
		TenantBudget:  cfg.TenantBudget,
		ClusterBudget: cfg.ClusterBudget,
	})

	results := make([]JobResult, len(cfg.Jobs))
	errs := make(chan error, len(cfg.Jobs))
	var wg sync.WaitGroup
	rankBase := 0
	for i, job := range cfg.Jobs {
		rankNodes := p.place.RankNodes[rankBase : rankBase+job.Ranks]
		rankBase += job.Ranks
		wg.Add(1)
		go func(i int, job JobSpec, rankNodes []netsim.NodeID) {
			defer wg.Done()
			res, err := cfg.runTenant(plane, p, dc, ctrl, job, rankNodes, killAt)
			if err != nil {
				errs <- fmt.Errorf("job %q: %w", job.Name, err)
				return
			}
			results[i] = *res
		}(i, job, rankNodes)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}

	out := &MultiJobResult{
		Jobs:      results,
		Admission: plane.Stats(),
	}
	if ctrl != nil {
		out.ChaosLog = ctrl.Log()
	}
	if dc.AuditEnabled() {
		out.AuditLog = dc.AuditLog()
		out.AuditTruncated = dc.AuditTruncated()
	}
	for i := range out.Jobs {
		if end := vtime.MaxTime(out.Jobs[i].SimMakespan, out.Jobs[i].AnalyticsTime); end > out.Makespan {
			out.Makespan = end
		}
	}
	dc.RecordUtilization(out.Makespan)
	p.machine.Fabric().RecordUtilization(out.Makespan)
	out.Metrics = p.reg.Snapshot()
	out.Jain = out.Metrics.Gauge(metrics.ID("scheduler", "fairness_jain"))
	return out, nil
}

// runTenant admits one job and runs it as a DEISA3 pipeline in its
// namespace, on its slice of the platform's rank nodes. A job in killAt
// has its analytics consume only the timesteps before its kill step.
func (c *MultiJobConfig) runTenant(plane *multijob.Plane, p *platform, dc *dask.Cluster, ctrl *chaos.Controller,
	job JobSpec, rankNodes []netsim.NodeID, killAt map[string]int) (*JobResult, error) {
	release, err := plane.Admit(job.Name, job.estimate())
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := newEnv(p, Config{
		System:     DEISA3,
		Ranks:      job.Ranks,
		Workers:    c.Workers,
		Timesteps:  job.Timesteps,
		BlockBytes: job.BlockBytes,
		Seed:       c.Seed,
		RealLocalX: c.RealLocalX,
		RealLocalY: c.RealLocalY,
		Model:      c.Model,
		TieBreak:   c.TieBreak,
	}, job.Name, rankNodes)
	if err != nil {
		return nil, err
	}
	steps := job.Timesteps
	killStep, killed := killAt[job.Name]
	if killed {
		steps = killStep
	}
	j, err := e.runJob(dc, ctrl, steps)
	if err != nil {
		return nil, err
	}
	res := &JobResult{
		Name:              job.Name,
		Weight:            job.Weight,
		Killed:            killed,
		KilledStep:        killStep,
		Components:        j.analytics.components,
		SingularValues:    j.analytics.singularValues,
		ExplainedVariance: j.analytics.explainedVariance,
		SimMakespan:       vtime.MaxTime(j.simEnds...),
		AnalyticsTime:     j.analytics.duration,
	}
	for _, b := range j.bridges {
		sent, skipped := b.Stats()
		res.BlocksSent += sent
		res.BlocksSkipped += skipped
	}
	res.Fingerprint = res.fingerprint()
	return res, nil
}
