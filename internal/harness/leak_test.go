package harness

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"deisago/internal/chaos"
)

// TestNoGoroutineLeak: every driver stops what it starts. After a run
// of each of the five systems, a multi-tenant run, a chaos run and a
// plan rejected up front, the goroutine count settles back to where it
// was before them.
func TestNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	for _, sys := range []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA2, DEISA3} {
		if _, err := Run(smallConfig(sys)); err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
	}
	if _, err := RunMultiJob(mjConfig(2)); err != nil {
		t.Fatal(err)
	}
	cfg := ChaosScenarioConfig(QuickOptions(), 4, 4)
	if _, err := RunChaosParallel(cfg, chaosAcceptancePlan(t, cfg), 1); err != nil {
		t.Fatal(err)
	}
	rejected, err := chaos.ParsePlan("drop:0/1:6")
	if err != nil {
		t.Fatal(err)
	}
	cfg = smallConfig(DEISA3)
	cfg.ChaosPlan = rejected
	if _, err := Run(cfg); err == nil {
		t.Fatal("plan exhausting the retry budget accepted")
	}

	// Exiting goroutines may still be unwinding: give them a moment.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		var stacks bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		t.Fatalf("%d goroutines before the runs, %d after:\n%s", base, n, stacks.String())
	}
}
