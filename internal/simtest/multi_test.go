package simtest

import (
	"testing"
)

// A fault-free mixed workload swept across 8 schedules: every tenant's
// analytics must be bit-identical on all of them, and the shared
// scheduler's interleaved transition log must replay cleanly through
// the reference model on every schedule.
func TestExploreMultiSchedulesIdentical(t *testing.T) {
	rep, err := Explore(DefaultTenantsSpec(), Seeds(1, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("multi-tenant schedule sweep not clean: %s", rep.Summary())
	}
	if rep.Schedules != 8 {
		t.Fatalf("ran %d schedules, want 8", rep.Schedules)
	}
	if rep.Reference.Decisions == "" {
		t.Fatal("reference schedule made no tie-break decisions; hooks not exercised")
	}
	if rep.Reference.Model.Records == 0 || rep.Reference.Model.Tasks == 0 {
		t.Fatalf("reference model saw no transitions: %+v", rep.Reference.Model)
	}
}

// The same mixed workload under a killjob fault with the workers
// squeezed by memory governance: cancelling one tenant mid-run must
// also be schedule-invariant, and must change the outcome relative to
// the fault-free sweep (the kill is observable).
func TestExploreMultiKilljobSchedulesIdentical(t *testing.T) {
	clean, err := Explore(DefaultTenantsSpec(), Seeds(1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := DefaultTenantsSpec()
	sp.MemLimit = 4 << 20
	sp.Plan = "killjob:beta@2"
	rep, err := Explore(sp, Seeds(50, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("killjob schedule sweep not clean: %s", rep.Summary())
	}
	if rep.Reference.Fingerprint == clean.Reference.Fingerprint {
		t.Fatal("killjob run fingerprints identical to fault-free run; the kill was not observable")
	}
}

// A pinned schedule must reproduce a seeded multi-tenant schedule
// exactly, as for single-job specs.
func TestMultiOverrideReplayMatchesSeededRun(t *testing.T) {
	sp := DefaultTenantsSpec()
	sp.Seed = 42
	seeded, err := RunPipeline(sp)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Decisions == "" {
		t.Fatal("seeded multi run made no decisions")
	}
	sp.Overrides = seeded.Decisions
	replayed, err := RunPipeline(sp)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Fingerprint != seeded.Fingerprint {
		t.Fatalf("override replay diverged: %s vs %s", replayed.Fingerprint, seeded.Fingerprint)
	}
}
