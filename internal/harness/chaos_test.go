package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"deisago/internal/chaos"
	"deisago/internal/core"
)

// chaosAcceptancePlan returns the seed-7 plan over the acceptance
// scenario shape and asserts it has the compound-failure profile the
// acceptance criteria require: >= 2 worker kills, >= 1 degraded link,
// >= 1 dropped publish.
func chaosAcceptancePlan(t *testing.T, cfg Config) *chaos.Plan {
	t.Helper()
	plan, err := chaos.NewRandomPlan(7, ChaosSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[chaos.Kind]int{}
	for _, e := range plan.Events {
		counts[e.Kind]++
	}
	if counts[chaos.KindKillWorker] < 2 || counts[chaos.KindDegradeLink] < 1 || counts[chaos.KindDropPublish] < 1 {
		t.Fatalf("plan %s lacks the compound-failure profile: %v", plan, counts)
	}
	return plan
}

// TestChaosAcceptance is the PR's acceptance criterion: a seeded plan
// with >= 2 kills, a degraded link, and a dropped publish over the
// Fig-2b pipeline completes bit-identical to the fault-free run with
// the invariant auditor on throughout (zero violations — a violation
// panics), and the same seed reproduces the identical event log twice.
func TestChaosAcceptance(t *testing.T) {
	opts := QuickOptions()
	cfg := ChaosScenarioConfig(opts, 4, 4)
	plan := chaosAcceptancePlan(t, cfg)

	report, err := RunChaosParallel(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Identical {
		t.Fatalf("analytics diverged from the fault-free run under plan %s", plan)
	}
	if len(report.Faulty.ChaosLog) == 0 {
		t.Fatal("no faults executed")
	}
	kills := 0
	for _, e := range report.Faulty.ChaosLog {
		if e.Kind == "kill" {
			kills++
		}
	}
	if kills < 2 {
		t.Fatalf("only %d kills executed, want >= 2: %v", kills, report.Faulty.ChaosLog)
	}
	if report.Faulty.Metrics.SumCounters("bridge/republished{") == 0 {
		t.Fatal("kills of publish-holding workers should force republishes")
	}

	// Reproducibility: the identical seed yields the identical event log.
	faulty := cfg
	faulty.ChaosPlan = plan
	again, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Faulty.ChaosLog, again.ChaosLog) {
		t.Fatalf("event log not reproducible:\nfirst:  %v\nsecond: %v",
			report.Faulty.ChaosLog, again.ChaosLog)
	}
	if !identicalAnalytics(report.Faulty, again) {
		t.Fatal("repeated chaos run diverged from itself")
	}
}

// TestChaosMemoryGovernanceAcceptance is the memory-governance
// acceptance criterion: the same seeded scenario run with a per-worker
// memory limit draws an additional memlimit squeeze window, and the
// compound plan (kills + squeeze) still completes bit-identical to the
// fault-free governed run with the auditor on — spills, backpressure
// stalls, and failovers shift timing only, never values. The event log,
// squeeze included, must reproduce across runs.
func TestChaosMemoryGovernanceAcceptance(t *testing.T) {
	opts := QuickOptions()
	cfg := ChaosScenarioConfig(opts, 4, 4)
	cfg.WorkerMemoryLimit = 16 << 20
	plan, err := chaos.NewRandomPlan(7, ChaosSpec(cfg))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[chaos.Kind]int{}
	for _, e := range plan.Events {
		counts[e.Kind]++
	}
	if counts[chaos.KindKillWorker] < 2 || counts[chaos.KindMemLimit] != 1 {
		t.Fatalf("plan %s lacks kills + memlimit: %v", plan, counts)
	}

	report, err := RunChaosParallel(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Identical {
		t.Fatalf("analytics diverged under memory pressure, plan %s:\n%s", plan, report.Format())
	}
	squeezes := 0
	for _, e := range report.Faulty.ChaosLog {
		if e.Kind == "memlimit" {
			squeezes++
		}
	}
	if squeezes != 1 {
		t.Fatalf("want exactly 1 memlimit entry in the log, got %d: %v", squeezes, report.Faulty.ChaosLog)
	}

	// Reproducibility: seed and limit together pin plan and log.
	faulty := cfg
	faulty.ChaosPlan = plan
	again, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Faulty.ChaosLog, again.ChaosLog) {
		t.Fatalf("event log not reproducible:\nfirst:  %v\nsecond: %v",
			report.Faulty.ChaosLog, again.ChaosLog)
	}
	if !identicalAnalytics(report.Faulty, again) {
		t.Fatal("repeated governed chaos run diverged from itself")
	}
}

// TestChaosExplicitPlanDSL runs a hand-written DSL plan end to end.
func TestChaosExplicitPlanDSL(t *testing.T) {
	opts := QuickOptions()
	opts.Timesteps = 4
	cfg := ChaosScenarioConfig(opts, 2, 3)
	plan, err := chaos.ParsePlan("kill:0@0/1;kill:2@1/2;degrade:0-1:3@0-inf;drop:1/3:2;delay:0/2:0.1")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunChaosParallel(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Identical {
		t.Fatalf("results diverged under %s:\n%s", plan, report.Format())
	}
	if report.Faulty.Metrics.SumCounters("bridge/retries{") == 0 {
		t.Fatal("dropped publishes should force retries")
	}
}

// TestChaosRejectsDeisa1 ensures fault injection refuses non-external
// systems (kills there lose unrecoverable scattered data by design).
func TestChaosRejectsDeisa1(t *testing.T) {
	opts := QuickOptions()
	cfg := ChaosScenarioConfig(opts, 2, 2)
	cfg.System = DEISA1
	plan, err := chaos.ParsePlan("kill:0@0/1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.ChaosPlan = plan
	if _, err := Run(cfg); err == nil {
		t.Fatal("chaos on DEISA1 accepted")
	}
}

// withDeadline runs f and fails the test if it does not return within d.
func withDeadline(t *testing.T, d time.Duration, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
		return nil
	}
}

// TestDropPlanWithinRetryBudget: a drop clause that loses as many
// publish attempts as the bridges' retry budget allows would abandon the
// block, and the ranks and analytics would wait on it forever. Both
// drivers reject such a plan up front, naming the event; one attempt
// less still runs to completion.
func TestDropPlanWithinRetryBudget(t *testing.T) {
	budget := core.DefaultRetryPolicy().MaxAttempts
	over := fmt.Sprintf("drop:0/1:%d", budget)
	under := fmt.Sprintf("drop:0/1:%d", budget-1)
	cfg := Config{System: DEISA3, Ranks: 2, Workers: 2, Timesteps: 3, BlockBytes: 1 << 20, Seed: 7}
	mj := MultiJobConfig{Jobs: mjJobs(1), Workers: 2, Seed: 7}
	for _, dsl := range []string{over, under} {
		plan, err := chaos.ParsePlan(dsl)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ChaosPlan, mj.ChaosPlan = plan, plan
		for _, run := range []struct {
			name string
			f    func() error
		}{
			{"Run", func() error { _, err := Run(cfg); return err }},
			{"RunMultiJob", func() error { _, err := RunMultiJob(mj); return err }},
		} {
			err := withDeadline(t, time.Minute, run.name+" under "+dsl, run.f)
			if dsl == under {
				if err != nil {
					t.Fatalf("%s under %s: %v", run.name, dsl, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), over) {
				t.Fatalf("%s under %s: err = %v, want a rejection naming the event", run.name, dsl, err)
			}
		}
	}
}
