package harness

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"deisago/internal/chaos"
	"deisago/internal/metrics"
)

// mjJobs builds a small mixed workload: n jobs of 2 ranks × 3 steps.
func mjJobs(n int) []JobSpec {
	out := make([]JobSpec, n)
	for i := range out {
		out[i] = JobSpec{
			Name:       string(rune('a'+i)) + "job",
			Weight:     1,
			Ranks:      2,
			Timesteps:  3,
			BlockBytes: 1 * MiB,
		}
	}
	return out
}

// mjConfig is the platform mjJobs run on.
var mjConfig = Config{System: DEISA3, Workers: 2, Seed: 7}

func TestMultiJobSmoke(t *testing.T) {
	res, err := Run(mjConfig, mjJobs(2)...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job results", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Fingerprint() == "" || j.Components == nil || len(j.SingularValues) == 0 {
			t.Fatalf("job %q incomplete: %+v", j.Name, j)
		}
		if want := int64(2 * 3); j.BlocksSent != want {
			t.Fatalf("job %q sent %d blocks, want %d", j.Name, j.BlocksSent, want)
		}
	}
	// Tenants: default + one per job, each with its service series.
	for _, name := range []string{"default", "ajob", "bjob"} {
		id := metrics.ID("scheduler", "tenant_pops", metrics.L("tenant", name))
		if !slices.ContainsFunc(res.Metrics.Counters, func(c metrics.CounterSnap) bool { return c.ID == id }) {
			t.Fatalf("no %s series", id)
		}
	}
	if res.Jain <= 0 || res.Jain > 1 {
		t.Fatalf("Jain = %g", res.Jain)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// TestMultiJobDeterminism: each tenant's fingerprint is the same in
// repeated runs of a 3-job mix and when the tenant runs alone. The
// namespaced pipelines are dataflow independent, so a tenant's outputs
// depend on its own spec only: not on the other tenants, nor on how
// their goroutines interleave.
func TestMultiJobDeterminism(t *testing.T) {
	jobs := mjJobs(3)
	fps := map[string][]string{}
	for range 2 {
		res, err := Run(mjConfig, jobs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			fps[j.Name] = append(fps[j.Name], j.Fingerprint())
		}
	}
	for _, job := range jobs {
		alone, err := Run(mjConfig, job)
		if err != nil {
			t.Fatal(err)
		}
		f := append(fps[job.Name], alone.Jobs[0].Fingerprint())
		if f[0] != f[1] || f[0] != f[2] {
			t.Fatalf("job %q fingerprints (mix, mix, alone) diverge: %v", job.Name, f)
		}
	}
}

// TestMultiJobKilljobSurvivorsBitIdentical: cancelling one tenant must
// not perturb any other tenant's outputs.
func TestMultiJobKilljobSurvivorsBitIdentical(t *testing.T) {
	clean, err := Run(mjConfig, mjJobs(3)...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParsePlan("killjob:bjob@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mjConfig
	cfg.ChaosPlan = plan
	chaotic, err := Run(cfg, mjJobs(3)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ajob", "cjob"} {
		if a, b := clean.Job(name).Fingerprint(), chaotic.Job(name).Fingerprint(); a != b {
			t.Fatalf("survivor %q fingerprint changed under killjob: %s vs %s", name, a, b)
		}
	}
	killed := chaotic.Job("bjob")
	if !killed.Killed || killed.KilledStep != 1 {
		t.Fatalf("bjob not reported killed at step 1: %+v", killed)
	}
	// Steps 1,2 of bjob's 3 are filtered at the bridges: 2 ranks × 2 steps.
	if killed.BlocksSent != 2 || killed.BlocksSkipped != 4 {
		t.Fatalf("bjob sent/skipped = %d/%d, want 2/4", killed.BlocksSent, killed.BlocksSkipped)
	}
	if killed.Components == nil {
		t.Fatal("bjob consumed step 0 but has no components")
	}
	if len(chaotic.ChaosLog) != 1 || chaotic.ChaosLog[0].Kind != "killjob" {
		t.Fatalf("chaos log = %+v", chaotic.ChaosLog)
	}
}

// TestMultiJobKilljobAtStepZero: a tenant killed before any data gets an
// empty contract — its bridges filter everything and it produces no
// analytics values; the rest of the platform is unaffected.
func TestMultiJobKilljobAtStepZero(t *testing.T) {
	plan, err := chaos.ParsePlan("killjob:ajob@0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mjConfig
	cfg.ChaosPlan = plan
	res, err := Run(cfg, mjJobs(2)...)
	if err != nil {
		t.Fatal(err)
	}
	killed := res.Job("ajob")
	if !killed.Killed || killed.Components != nil || killed.BlocksSent != 0 {
		t.Fatalf("killed-at-zero job = %+v", killed)
	}
	if killed.BlocksSkipped != 6 {
		t.Fatalf("skipped %d blocks, want all 6", killed.BlocksSkipped)
	}
	if res.Job("bjob").Components == nil {
		t.Fatal("surviving job has no results")
	}
}

// TestOneTenantMatchesRun: one named job, Run(cfg, job), is the
// DEISA3 pipeline of Run(cfg) at the job's size — the same analytics
// values, the same blocks shipped and the same tasks registered.
func TestOneTenantMatchesRun(t *testing.T) {
	single, err := Run(Config{
		System: DEISA3, Ranks: 2, Workers: 2,
		Timesteps: 3, BlockBytes: 1 * MiB, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(mjConfig, mjJobs(1)...)
	if err != nil {
		t.Fatal(err)
	}
	tenant := multi.Jobs[0]
	if !reflect.DeepEqual(single.Components.Data(), tenant.Components.Data()) ||
		!reflect.DeepEqual(single.Components.Shape(), tenant.Components.Shape()) {
		t.Fatal("components differ between Run(cfg) and Run(cfg, job)")
	}
	if !reflect.DeepEqual(single.SingularValues, tenant.SingularValues) {
		t.Fatalf("singular values %v vs %v", single.SingularValues, tenant.SingularValues)
	}
	if !reflect.DeepEqual(single.ExplainedVariance, tenant.ExplainedVariance) {
		t.Fatalf("explained variance %v vs %v", single.ExplainedVariance, tenant.ExplainedVariance)
	}
	if single.BlocksSent != 6 || tenant.BlocksSent != single.BlocksSent {
		t.Fatalf("blocks sent: Run %d, tenant %d, want 6", single.BlocksSent, tenant.BlocksSent)
	}
	const registered = "dask/tasks_registered"
	if s, m := single.Metrics.Counter(registered), multi.Metrics.Counter(registered); s != 18 || m != s {
		t.Fatalf("%s: Run %d, tenant %d, want 18", registered, s, m)
	}
}

// TestMultiJobValidation: Run refuses, before building anything, jobs
// it cannot run as asked.
func TestMultiJobValidation(t *testing.T) {
	killjob := func(dsl string) func(*Config, []JobSpec) {
		return func(c *Config, _ []JobSpec) {
			plan, err := chaos.ParsePlan(dsl)
			if err != nil {
				t.Fatal(err)
			}
			c.ChaosPlan = plan
		}
	}
	for _, c := range []struct {
		name string
		n    int
		edit func(*Config, []JobSpec)
		want string
	}{
		{"duplicate job names", 2, func(_ *Config, j []JobSpec) { j[1].Name = j[0].Name }, "duplicate"},
		{"slash in a job name", 1, func(_ *Config, j []JobSpec) { j[0].Name = "a/b" }, "/"},
		// "default" names the scheduler's catch-all tenant.
		{"job named default", 1, func(_ *Config, j []JobSpec) { j[0].Name = "default" }, "default"},
		{"zero-rank job", 1, func(_ *Config, j []JobSpec) { j[0].Ranks = 0 }, "positive"},
		{"zero workers", 1, func(c *Config, _ []JobSpec) { c.Workers = 0 }, "workers"},
		// Each job carries its own size; a top-level one would be ignored.
		{"top-level ranks", 1, func(c *Config, _ []JobSpec) { c.Ranks = 2 }, "must be zero"},
		{"top-level timesteps", 1, func(c *Config, _ []JobSpec) { c.Timesteps = 3 }, "must be zero"},
		{"top-level block size", 1, func(c *Config, _ []JobSpec) { c.BlockBytes = MiB }, "must be zero"},
		{"jobs on DEISA1", 1, func(c *Config, _ []JobSpec) { c.System = DEISA1 }, "DEISA3"},
		{"jobs post hoc", 1, func(c *Config, _ []JobSpec) { c.System = PostHocNewIPCA }, "DEISA3"},
		{"killjob of an unknown tenant", 1, killjob("killjob:ghost@1"), "unknown tenant"},
		{"killjob after the last step", 2, killjob("killjob:bjob@3"), "past job"}, // bjob has steps 0..2
		{"worker kill", 1, killjob("kill:0@0/1"), "worker kills"},
	} {
		cfg, jobs := mjConfig, mjJobs(c.n)
		c.edit(&cfg, jobs)
		if err := cfg.Validate(jobs...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate err = %v, want one naming %q", c.name, err, c.want)
		}
		if _, err := Run(cfg, jobs...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run err = %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestMultiJobTraceStaysRunWide: the platform's trace is the run's. With
// two jobs under EnableTrace, no job's Result carries one, and the run's
// holds spans of both tenants' namespaces.
func TestMultiJobTraceStaysRunWide(t *testing.T) {
	cfg := mjConfig
	cfg.EnableTrace = true
	res, err := Run(cfg, mjJobs(2)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if j.Trace != nil || j.Metrics != nil || j.ChaosLog != nil || j.AuditLog != nil {
			t.Fatalf("job %q carries run-wide fields: %d spans, metrics %v, %d faults, %d transitions",
				j.Name, len(j.Trace), j.Metrics != nil, len(j.ChaosLog), len(j.AuditLog))
		}
	}
	spans := map[string]int{}
	for _, ev := range res.Trace {
		ns, _, _ := strings.Cut(string(ev.Key), "/")
		spans[ns]++
	}
	if spans["ajob"] == 0 || spans["bjob"] == 0 {
		t.Fatalf("run trace spans by namespace = %v, want both ajob and bjob", spans)
	}
}

// TestMultiJobWeightedNoStarvation: under an 8:1 weight ratio on a
// single contended worker, the weight-1 tenant still finishes, and
// neither tenant's completion lags the other unboundedly (fair-share
// pops interleave every contended drain; the sharp interleaving checks
// live in the dask package's tenant tests).
func TestMultiJobWeightedNoStarvation(t *testing.T) {
	res, err := Run(Config{System: DEISA3, Workers: 1, Seed: 11}, // single worker: every pop is contended
		JobSpec{Name: "heavy", Weight: 8, Ranks: 2, Timesteps: 4, BlockBytes: 4 * MiB},
		JobSpec{Name: "light", Weight: 1, Ranks: 2, Timesteps: 4, BlockBytes: 4 * MiB},
	)
	if err != nil {
		t.Fatal(err)
	}
	heavy, light := res.Job("heavy"), res.Job("light")
	if heavy.AnalyticsTime <= 0 || light.AnalyticsTime <= 0 {
		t.Fatalf("jobs did not finish: heavy %g light %g", heavy.AnalyticsTime, light.AnalyticsTime)
	}
	ratio := heavy.AnalyticsTime / light.AnalyticsTime
	if ratio > 4 || ratio < 0.25 {
		t.Fatalf("completion skew %g (heavy %g, light %g): a tenant starved", ratio, heavy.AnalyticsTime, light.AnalyticsTime)
	}
}

// TestMultiJobMixedSizes: jobs of different shapes coexist.
func TestMultiJobMixedSizes(t *testing.T) {
	cfg := Config{
		System:            DEISA3,
		Workers:           2,
		Seed:              3,
		WorkerMemoryLimit: 64 * MiB,
		EnableAudit:       true,
	}
	res, err := Run(cfg,
		JobSpec{Name: "wide", Weight: 2, Ranks: 4, Timesteps: 2, BlockBytes: 2 * MiB},
		JobSpec{Name: "long", Weight: 1, Ranks: 1, Timesteps: 6, BlockBytes: 1 * MiB},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Job("wide").BlocksSent != 8 || res.Job("long").BlocksSent != 6 {
		t.Fatalf("blocks sent = %d/%d, want 8/6",
			res.Job("wide").BlocksSent, res.Job("long").BlocksSent)
	}
	// Tenant metrics carry the tenant label.
	found := false
	for _, c := range res.Metrics.Counters {
		if strings.Contains(c.ID, "tenant_pops") && strings.Contains(c.ID, "wide") {
			found = true
		}
	}
	if !found {
		t.Fatal("no tenant-labelled scheduler metrics in snapshot")
	}
}
