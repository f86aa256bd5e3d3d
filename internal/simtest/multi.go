package simtest

import (
	"crypto/sha256"
	"fmt"
	"io"

	"deisago/internal/chaos"
	"deisago/internal/harness"
)

// Multi-tenant schedule explorer: the same sweep as Explore, but over a
// mixed workload of concurrent tenant pipelines sharing one platform.
// The shared scheduler interleaves the tenants' tasks (weighted
// fair-share), so the schedule space is much larger than a single
// job's — and the invariant is stronger: not only must each tenant's
// analytics be bit-identical across schedules, the interleaved
// transition log must replay cleanly through the reference model, which
// sees every tenant's keys in one stream.

// MultiSpec describes one multi-tenant run: the workload mix, the
// platform shape, the fault plan, and the schedule seed or override
// set.
type MultiSpec struct {
	Jobs    []harness.JobSpec `json:"jobs"`
	Workers int               `json:"workers"`
	// MemLimit, when positive, turns on worker memory governance on the
	// shared cluster.
	MemLimit int64 `json:"mem_limit,omitempty"`
	// MaxConcurrent caps admission (0 = all jobs run at once).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// Plan is the chaos DSL ("" = fault-free). killjob clauses target
	// tenants by name; worker kills are rejected by the harness.
	Plan string `json:"plan,omitempty"`
	// Seed picks the schedule via a SeededBreaker. Ignored when
	// Overrides is non-empty.
	Seed int64 `json:"seed"`
	// Overrides replays an explicit schedule (tb: clauses).
	Overrides string `json:"overrides,omitempty"`

	// Trace receives tie-break decisions as they are made (seeded
	// schedules only). Not serialised.
	Trace io.Writer `json:"-"`
}

// DefaultMultiSpec is the explorer's standard mixed workload: two
// tenants of different shapes and weights contending for three workers.
func DefaultMultiSpec() MultiSpec {
	return MultiSpec{
		Jobs: []harness.JobSpec{
			{Name: "alpha", Weight: 2, Ranks: 2, Timesteps: 3, BlockBytes: 1 << 20},
			{Name: "beta", Weight: 1, Ranks: 1, Timesteps: 4, BlockBytes: 1 << 20},
		},
		Workers: 3,
	}
}

// Config translates the spec to a harness multi-job configuration.
func (sp MultiSpec) Config() (harness.MultiJobConfig, error) {
	cfg := harness.MultiJobConfig{
		Jobs:              sp.Jobs,
		Workers:           sp.Workers,
		Seed:              1,
		MaxConcurrent:     sp.MaxConcurrent,
		WorkerMemoryLimit: sp.MemLimit,
		EnableAudit:       true,
	}
	if sp.Plan != "" {
		plan, err := chaos.ParsePlan(sp.Plan)
		if err != nil {
			return cfg, fmt.Errorf("simtest: multi spec plan: %w", err)
		}
		cfg.ChaosPlan = plan
	}
	return cfg, nil
}

// RunMultiPipeline executes one multi-tenant spec end to end: run the
// mixed workload with the requested tie-breaking, replay the shared
// scheduler's interleaved transition log through the reference model,
// and fingerprint the per-tenant observables.
func RunMultiPipeline(sp MultiSpec) (*Outcome, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	tb, decisions, err := schedule(sp.Seed, sp.Overrides, sp.Trace)
	if err != nil {
		return nil, err
	}
	cfg.TieBreak = tb
	res, err := harness.RunMultiJob(cfg)
	if err != nil {
		return nil, err
	}
	return outcome(MultiFingerprint(res), res.AuditLog, res.AuditTruncated, decisions)
}

// MultiFingerprint digests a multi-tenant run's schedule-invariant
// observables: every tenant's analytics fingerprint (themselves digests
// of components, singular values, explained variance and block
// accounting) in job order, plus the executed fault log. Timing,
// admission interleaving and per-worker counters are excluded.
func MultiFingerprint(res *harness.MultiJobResult) string {
	h := sha256.New()
	for _, j := range res.Jobs {
		io.WriteString(h, j.Name)
		io.WriteString(h, "=")
		io.WriteString(h, j.Fingerprint())
		io.WriteString(h, "\n")
	}
	for _, e := range res.ChaosLog {
		io.WriteString(h, e.String())
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// MultiRunner executes one multi-spec and reports its outcome.
type MultiRunner func(MultiSpec) (*Outcome, error)

// ExploreMulti runs the multi-spec across the given schedule seeds and
// compares every outcome against the first successful one, exactly as
// Explore does for single-job specs.
func ExploreMulti(sp MultiSpec, seeds []int64, run MultiRunner) (*ExploreReport, error) {
	if run == nil {
		run = RunMultiPipeline
	}
	return explore(seeds, func(seed int64) (*Outcome, error) {
		s := sp
		s.Seed, s.Overrides = seed, ""
		return run(s)
	})
}
