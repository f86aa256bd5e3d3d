package chaos_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"deisago/internal/chaos"
	"deisago/internal/harness"
)

// TestChaosPlanPreservesResults is the chaos property test: for any
// seeded fault plan over a random scenario shape, the run completes
// with analytics bit-identical to the fault-free run. (Every data kind
// in the external-mode pipeline is recoverable — results recompute from
// lineage, external blocks republish — so no erred outcome is legal
// here; non-recomputable scatter loss is covered by
// TestKillWorkerLosesScatteredData in package dask.)
func TestChaosPlanPreservesResults(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	type shape struct {
		Seed          int64
		Ranks, Wrk    int
		Steps, Kills  int
		Drops, Delays int
	}
	cfgGen := func(vals []reflect.Value, rng *rand.Rand) {
		vals[0] = reflect.ValueOf(shape{
			Seed:   rng.Int63n(1 << 30),
			Ranks:  2 + rng.Intn(3),
			Wrk:    2 + rng.Intn(3),
			Steps:  3 + rng.Intn(3),
			Kills:  1 + rng.Intn(2),
			Drops:  rng.Intn(3),
			Delays: rng.Intn(2),
		})
	}
	property := func(s shape) bool {
		opts := harness.QuickOptions()
		opts.Timesteps = s.Steps
		cfg := harness.ChaosScenarioConfig(opts, s.Ranks, s.Wrk)
		spec := harness.ChaosSpec(cfg)
		spec.Kills = s.Kills
		if spec.Kills > s.Wrk-1 {
			spec.Kills = s.Wrk - 1
		}
		spec.Drops = s.Drops
		spec.Delays = s.Delays
		plan, err := chaos.NewRandomPlan(s.Seed, spec)
		if err != nil {
			t.Logf("shape %+v: plan: %v", s, err)
			return false
		}
		report, err := harness.RunChaosParallel(cfg, plan, 1)
		if err != nil {
			t.Logf("shape %+v plan %s: %v", s, plan, err)
			return false
		}
		if !report.Identical {
			t.Logf("shape %+v plan %s: results diverged", s, plan)
			return false
		}
		return true
	}
	// Fixed seed: the sweep is deterministic across runs.
	err := quick.Check(property, &quick.Config{
		MaxCount: 8,
		Rand:     rand.New(rand.NewSource(11)),
		Values:   cfgGen,
	})
	if err != nil {
		t.Fatal(err)
	}
}
