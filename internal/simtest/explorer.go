package simtest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"deisago/internal/chaos"
	"deisago/internal/dask"
	"deisago/internal/harness"
)

// Schedule explorer: runs the Fig-2b pipeline (DEISA3), or a mixed
// workload of tenant pipelines sharing one platform, across K schedules
// that differ only in how benign scheduling ties were broken, and
// asserts the observable outcome — analytics bits, schedule-invariant
// counters, executed fault log — is identical on every one. Any
// divergence means a scheduling decision that was supposed to be benign
// leaked into the results; any auditor panic or reference-model
// rejection means a schedule reached a state the fault-free rules
// forbid. With tenants the shared scheduler interleaves their tasks
// (weighted fair-share), and the interleaved transition log must replay
// cleanly through the reference model, which sees every tenant's keys in
// one stream.

// Spec describes one pipeline run: the scenario shape, the fault plan,
// and the schedule (seed or explicit override set). It is JSON-friendly
// so a subprocess runner can ship it through the environment.
type Spec struct {
	// Ranks, Timesteps and BlockBytes size the one job of a spec
	// without Jobs; they stay zero when Jobs is set.
	Ranks      int   `json:"ranks"`
	Workers    int   `json:"workers"`
	Timesteps  int   `json:"timesteps"`
	BlockBytes int64 `json:"block_bytes"`
	// Jobs, when non-empty, runs these tenants on one shared platform
	// (harness.Run(cfg, jobs...)).
	Jobs []harness.JobSpec `json:"jobs,omitempty"`
	// MemLimit, when positive, turns on worker memory governance.
	MemLimit int64 `json:"mem_limit,omitempty"`
	// Plan is the chaos DSL ("" = fault-free run). killjob clauses
	// target Jobs by name; with Jobs the harness refuses worker kills.
	Plan string `json:"plan,omitempty"`
	// Seed picks the schedule via a SeededBreaker. Ignored when
	// Overrides is non-empty.
	Seed int64 `json:"seed"`
	// Overrides replays an explicit schedule: semicolon-joined tb:
	// clauses (see FormatDecision). Decisions not listed take candidate
	// 0. The shrinker minimises this field.
	Overrides string `json:"overrides,omitempty"`

	// Trace, when non-nil, receives each tie-break decision as it is
	// made (seeded schedules only). Not serialised; used by subprocess
	// runners to recover the schedule from a crashed run via stdout.
	Trace io.Writer `json:"-"`
}

// DefaultSpec is the explorer's standard scenario: small enough that a
// 16-schedule sweep stays test-suite fast, big enough to exercise
// multi-worker ties, governance, and failover.
func DefaultSpec() Spec {
	return Spec{Ranks: 4, Workers: 3, Timesteps: 4, BlockBytes: 1 << 20}
}

// DefaultTenantsSpec is the explorer's standard mixed workload: two
// tenants of different shapes and weights contending for three workers.
func DefaultTenantsSpec() Spec {
	return Spec{
		Jobs: []harness.JobSpec{
			{Name: "alpha", Weight: 2, Ranks: 2, Timesteps: 3, BlockBytes: 1 << 20},
			{Name: "beta", Weight: 1, Ranks: 1, Timesteps: 4, BlockBytes: 1 << 20},
		},
		Workers: 3,
	}
}

// Config translates the spec to a harness configuration; Run it with
// the spec's Jobs.
func (sp Spec) Config() (harness.Config, error) {
	cfg := harness.Config{
		System:            harness.DEISA3,
		Ranks:             sp.Ranks,
		Workers:           sp.Workers,
		Timesteps:         sp.Timesteps,
		BlockBytes:        sp.BlockBytes,
		Seed:              1,
		WorkerMemoryLimit: sp.MemLimit,
		EnableAudit:       true,
	}
	if sp.Plan != "" {
		plan, err := chaos.ParsePlan(sp.Plan)
		if err != nil {
			return cfg, fmt.Errorf("simtest: spec plan: %w", err)
		}
		cfg.ChaosPlan = plan
	}
	return cfg, nil
}

// Outcome is everything RunPipeline observes about one schedule.
type Outcome struct {
	// Fingerprint digests the run's schedule-invariant observables:
	// analytics bits, deterministic counters, executed fault log.
	Fingerprint string `json:"fingerprint"`
	// Decisions is the schedule actually taken, as tb: DSL clauses —
	// from the seeded breaker's record, or echoed from Spec.Overrides.
	Decisions string `json:"decisions"`
	// Model is the reference-model replay report for the audit log.
	Model *Report `json:"model"`
}

// RunPipeline executes one spec end to end: run the harness with the
// requested tie-breaking, replay the transition log through the
// reference model, and fingerprint the observables. A scheduler
// invariant violation panics (the auditor is always on here); a model
// rejection returns an error.
func RunPipeline(sp Spec) (*Outcome, error) {
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	tb, decisions, err := schedule(sp.Seed, sp.Overrides, sp.Trace)
	if err != nil {
		return nil, err
	}
	cfg.TieBreak = tb
	res, err := harness.Run(cfg, sp.Jobs...)
	if err != nil {
		return nil, err
	}
	rep, err := Replay(res.AuditLog, res.AuditTruncated)
	if err != nil {
		return nil, err
	}
	return &Outcome{Fingerprint: Fingerprint(res), Decisions: decisions(), Model: rep}, nil
}

// schedule resolves a spec's tie-breaking: an explicit override set, or
// a seeded breaker that records (and, given a trace, streams) its
// decisions. decisions reports the schedule taken once the run is over.
func schedule(seed int64, overrides string, trace io.Writer) (tb dask.TieBreaker, decisions func() string, err error) {
	if overrides != "" {
		o, err := ParseOverrides(overrides)
		if err != nil {
			return nil, nil, err
		}
		return OverrideBreaker{O: o}, func() string { return overrides }, nil
	}
	b := NewSeededBreaker(seed)
	if trace != nil {
		b.SetTrace(trace)
	}
	return b, func() string { return b.Decisions().Format() }, nil
}

// Fingerprint digests a run's schedule-invariant observables. Values
// that legitimately vary with the schedule (per-worker counters, retry
// totals, timing gauges) are excluded; everything here must be
// bit-identical across all legal schedules of the same spec. A run
// without jobs contributes its analytics bits and deterministic
// counters; a run with jobs contributes every tenant's fingerprint
// (harness.Result.Fingerprint) in job order. Both end with the executed
// fault log.
func Fingerprint(res *harness.Result) string {
	h := sha256.New()
	if len(res.Jobs) == 0 {
		res.WriteAnalytics(h)
		m := res.Metrics
		binary.Write(h, binary.LittleEndian, [5]int64{
			m.Counter("dask/graphs_submitted"), m.Counter("dask/tasks_registered"),
			m.Counter("dask/external_created"), res.BlocksSent, res.BlocksSkipped,
		})
	}
	for i := range res.Jobs {
		j := &res.Jobs[i]
		io.WriteString(h, j.Name+"="+j.Fingerprint()+"\n")
	}
	for _, e := range res.ChaosLog {
		io.WriteString(h, e.String())
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Runner executes one spec and reports its outcome. The explorer's
// default (nil) runner is in-process RunPipeline; the mutant self-test
// substitutes a subprocess runner so auditor panics in scheduler
// goroutines become Failure strings instead of killing the test binary.
type Runner func(Spec) (*Outcome, error)

// ExploreReport is the result of a schedule sweep.
type ExploreReport struct {
	Schedules int        // schedules run
	Reference *Outcome   // outcome of the first schedule
	Outcomes  []*Outcome // per-seed outcomes, index-aligned with seeds
	// Divergent lists seeds whose fingerprint differed from the
	// reference; Failures lists seeds whose run failed outright
	// (auditor panic under a subprocess runner, model rejection).
	Divergent []int64
	Failures  map[int64]string
}

// OK reports a fully clean sweep.
func (r *ExploreReport) OK() bool { return len(r.Divergent) == 0 && len(r.Failures) == 0 }

// Failed returns the first failing seed and its failure, in seed-slice
// order, for handing to the shrinker.
func (r *ExploreReport) Failed(seeds []int64) (int64, string, bool) {
	for _, s := range seeds {
		if msg, ok := r.Failures[s]; ok {
			return s, msg, true
		}
	}
	return 0, "", false
}

// Explore runs the spec across the given schedule seeds and compares
// every outcome against the first successful one. run == nil uses the
// in-process pipeline.
func Explore(sp Spec, seeds []int64, run Runner) (*ExploreReport, error) {
	if run == nil {
		run = RunPipeline
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("simtest: explore needs at least one seed")
	}
	rep := &ExploreReport{Failures: map[int64]string{}}
	for _, seed := range seeds {
		s := sp
		s.Seed, s.Overrides = seed, ""
		out, err := run(s)
		if err != nil {
			rep.Failures[seed] = err.Error()
			rep.Outcomes = append(rep.Outcomes, nil)
			continue
		}
		rep.Schedules++
		rep.Outcomes = append(rep.Outcomes, out)
		if rep.Reference == nil {
			rep.Reference = out
			continue
		}
		if out.Fingerprint != rep.Reference.Fingerprint {
			rep.Divergent = append(rep.Divergent, seed)
		}
	}
	return rep, nil
}

// Seeds returns k distinct schedule seeds starting at base.
func Seeds(base int64, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Summary formats the sweep result for logs.
func (r *ExploreReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simtest: %d schedules", r.Schedules)
	if r.OK() {
		fmt.Fprintf(&b, ", all outcomes identical (fingerprint %.12s…)", r.Reference.Fingerprint)
		return b.String()
	}
	if len(r.Divergent) > 0 {
		fmt.Fprintf(&b, ", %d divergent seeds %v", len(r.Divergent), r.Divergent)
	}
	for seed, msg := range r.Failures {
		fmt.Fprintf(&b, "\n  seed %d failed: %s", seed, firstLine(msg))
	}
	return b.String()
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
