package harness

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"deisago/internal/chaos"
	"deisago/internal/metrics"
	"deisago/internal/multijob"
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

func mjConfig(n int) MultiJobConfig {
	return MultiJobConfig{
		Jobs:    mjJobs(n),
		Workers: 2,
		Seed:    7,
	}
}

func TestMultiJobSmoke(t *testing.T) {
	res, err := RunMultiJob(mjConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("got %d job results", len(res.Jobs))
	}
	for _, j := range res.Jobs {
		if j.Fingerprint == "" || j.Components == nil || len(j.SingularValues) == 0 {
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
	if res.Admission.Admitted != 2 || res.Admission.Running != 0 {
		t.Fatalf("admission stats = %+v", res.Admission)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// TestMultiJobDeterminism: per-tenant fingerprints are bit-identical
// across repeated runs AND between serial (MaxConcurrent=1) and fully
// concurrent admission — the namespaced pipelines are dataflow
// independent, so interleaving cannot leak between tenants.
func TestMultiJobDeterminism(t *testing.T) {
	base := mjConfig(3)
	serial := base
	serial.MaxConcurrent = 1
	fps := map[string][]string{}
	for _, cfg := range []MultiJobConfig{base, base, serial} {
		res, err := RunMultiJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range res.Jobs {
			fps[j.Name] = append(fps[j.Name], j.Fingerprint)
		}
	}
	for name, f := range fps {
		if len(f) != 3 || f[0] != f[1] || f[0] != f[2] {
			t.Fatalf("job %q fingerprints diverge: %v", name, f)
		}
	}
}

// TestMultiJobKilljobSurvivorsBitIdentical: cancelling one tenant must
// not perturb any other tenant's outputs.
func TestMultiJobKilljobSurvivorsBitIdentical(t *testing.T) {
	clean, err := RunMultiJob(mjConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := chaos.ParsePlan("killjob:bjob@1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mjConfig(3)
	cfg.ChaosPlan = plan
	chaotic, err := RunMultiJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ajob", "cjob"} {
		if a, b := clean.Job(name).Fingerprint, chaotic.Job(name).Fingerprint; a != b {
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
	cfg := mjConfig(2)
	cfg.ChaosPlan = plan
	res, err := RunMultiJob(cfg)
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

// TestOneTenantMatchesRun: a single tenant on the multi-job platform is
// the single-job DEISA3 pipeline — the same analytics values, the same
// blocks shipped and the same tasks registered.
func TestOneTenantMatchesRun(t *testing.T) {
	single, err := Run(Config{
		System: DEISA3, Ranks: 2, Workers: 2,
		Timesteps: 3, BlockBytes: 1 * MiB, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunMultiJob(mjConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tenant := multi.Jobs[0]
	if !reflect.DeepEqual(single.Components.Data(), tenant.Components.Data()) ||
		!reflect.DeepEqual(single.Components.Shape(), tenant.Components.Shape()) {
		t.Fatal("components differ between Run and a one-tenant RunMultiJob")
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

func TestMultiJobAdmissionReject(t *testing.T) {
	cfg := mjConfig(2)
	cfg.TenantBudget = 1 // every job estimate exceeds this
	if _, err := RunMultiJob(cfg); !errors.Is(err, multijob.ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
}

func TestMultiJobValidation(t *testing.T) {
	dup := mjConfig(2)
	dup.Jobs[1].Name = dup.Jobs[0].Name
	if _, err := RunMultiJob(dup); err == nil {
		t.Fatal("duplicate job names accepted")
	}
	slash := mjConfig(1)
	slash.Jobs[0].Name = "a/b"
	if _, err := RunMultiJob(slash); err == nil {
		t.Fatal("slash in job name accepted")
	}
	// "default" names the scheduler's catch-all tenant: validation must
	// refuse it before any platform is built.
	reserved := mjConfig(1)
	reserved.Jobs[0].Name = "default"
	if err := reserved.Validate(); err == nil {
		t.Fatal(`job named "default" passed validation`)
	}
	// Negative admission limits are refused, not handed to the plane.
	for _, neg := range []func(*MultiJobConfig){
		func(c *MultiJobConfig) { c.MaxConcurrent = -2 },
		func(c *MultiJobConfig) { c.TenantBudget = -1 },
		func(c *MultiJobConfig) { c.ClusterBudget = -1 },
	} {
		cfg := mjConfig(2)
		neg(&cfg)
		if _, err := RunMultiJob(cfg); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("negative limit err = %v", err)
		}
	}
	unknown := mjConfig(1)
	plan, err := chaos.ParsePlan("killjob:ghost@1")
	if err != nil {
		t.Fatal(err)
	}
	unknown.ChaosPlan = plan
	if _, err := RunMultiJob(unknown); err == nil ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown killjob tenant err = %v", err)
	}
	late := mjConfig(2)
	plan, err = chaos.ParsePlan("killjob:bjob@3") // bjob has steps 0..2
	if err != nil {
		t.Fatal(err)
	}
	late.ChaosPlan = plan
	if _, err := RunMultiJob(late); err == nil ||
		!strings.Contains(err.Error(), "past job") {
		t.Fatalf("killjob after the last step err = %v", err)
	}
	kills := mjConfig(1)
	plan, err = chaos.ParsePlan("kill:0@0/1")
	if err != nil {
		t.Fatal(err)
	}
	kills.ChaosPlan = plan
	if _, err := RunMultiJob(kills); err == nil ||
		!strings.Contains(err.Error(), "worker kills") {
		t.Fatalf("worker-kill plan err = %v", err)
	}
}

// TestMultiJobWeightedNoStarvation: under an 8:1 weight ratio on a
// single contended worker, the weight-1 tenant still finishes, and
// neither tenant's completion lags the other unboundedly (fair-share
// pops interleave every contended drain; the sharp interleaving checks
// live in the dask package's tenant tests).
func TestMultiJobWeightedNoStarvation(t *testing.T) {
	cfg := MultiJobConfig{
		Jobs: []JobSpec{
			{Name: "heavy", Weight: 8, Ranks: 2, Timesteps: 4, BlockBytes: 4 * MiB},
			{Name: "light", Weight: 1, Ranks: 2, Timesteps: 4, BlockBytes: 4 * MiB},
		},
		Workers: 1, // single worker: every pop is contended
		Seed:    11,
	}
	res, err := RunMultiJob(cfg)
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
	cfg := MultiJobConfig{
		Jobs: []JobSpec{
			{Name: "wide", Weight: 2, Ranks: 4, Timesteps: 2, BlockBytes: 2 * MiB},
			{Name: "long", Weight: 1, Ranks: 1, Timesteps: 6, BlockBytes: 1 * MiB},
		},
		Workers:           2,
		Seed:              3,
		WorkerMemoryLimit: 64 * MiB,
		MaxConcurrent:     2,
		EnableAudit:       true,
	}
	res, err := RunMultiJob(cfg)
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
