package simtest

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// The acceptance sweep: 16 schedules of the fault-free Fig-2b pipeline,
// every benign tie permuted, must produce bit-identical analytics and
// deterministic counters, with the invariant auditor on and the
// reference model replaying every transition log.
func TestExploreSchedulesIdentical(t *testing.T) {
	rep, err := Explore(DefaultSpec(), Seeds(1, 16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("schedule sweep not clean: %s", rep.Summary())
	}
	if rep.Schedules != 16 {
		t.Fatalf("ran %d schedules, want 16", rep.Schedules)
	}
	// The sweep is vacuous if no ties actually fired: at least one
	// schedule must have made non-trivial decisions, and at least two
	// schedules must have made different ones (otherwise the seeds all
	// collapsed to one schedule).
	if rep.Reference.Decisions == "" {
		t.Fatal("reference schedule made no tie-break decisions; hooks not exercised")
	}
	distinct := map[string]bool{}
	for _, o := range rep.Outcomes {
		distinct[o.Decisions] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all 16 seeds produced the same schedule; explorer is not permuting (decisions: %.120s…)",
			rep.Reference.Decisions)
	}
	if rep.Reference.Model.Records == 0 || rep.Reference.Model.Tasks == 0 {
		t.Fatalf("reference model saw no transitions: %+v", rep.Reference.Model)
	}
}

// Same sweep under a compound fault plan (worker kill + dropped and
// delayed publishes) with memory governance squeezing the workers: the
// recovery paths (failover, republish, spill) must also be schedule-
// invariant.
func TestExploreChaosSchedulesIdentical(t *testing.T) {
	sp := DefaultSpec()
	sp.MemLimit = 3 * sp.BlockBytes
	sp.Plan = "kill:0@1/1;drop:1/2:1;delay:2/0:0.002"
	rep, err := Explore(sp, Seeds(100, 6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("chaos schedule sweep not clean: %s", rep.Summary())
	}
	if rep.Reference.Model.Deaths != 1 {
		t.Fatalf("model saw %d worker deaths, want 1", rep.Reference.Model.Deaths)
	}
	if rep.Reference.Decisions == "" {
		t.Fatal("chaos sweep made no tie-break decisions; hooks not exercised")
	}
}

// A pinned schedule must reproduce the seeded schedule exactly: replay
// the recorded decisions through an OverrideBreaker and compare
// fingerprints.
func TestOverrideReplayMatchesSeededRun(t *testing.T) {
	sp := DefaultSpec()
	sp.Seed = 42
	seeded, err := RunPipeline(sp)
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Decisions == "" {
		t.Fatal("seeded run made no decisions")
	}
	sp.Overrides = seeded.Decisions
	replayed, err := RunPipeline(sp)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Fingerprint != seeded.Fingerprint {
		t.Fatalf("override replay diverged from seeded run:\n  seeded   %s\n  replayed %s",
			seeded.Fingerprint, replayed.Fingerprint)
	}
}

func TestExploreRejectsEmptySeeds(t *testing.T) {
	if _, err := Explore(DefaultSpec(), nil, nil); err == nil {
		t.Fatal("want error for empty seed list")
	}
}

func TestSpecRejectsBadPlan(t *testing.T) {
	sp := DefaultSpec()
	sp.Plan = "explode:everything"
	if _, err := RunPipeline(sp); err == nil || !strings.Contains(err.Error(), "spec plan") {
		t.Fatalf("want plan parse error, got %v", err)
	}
}

// TestFingerprintsPinned: the one fingerprint keeps both streams it
// replaced. A spec without jobs digests the single job's analytics and
// counters; a spec with jobs digests the per-tenant fingerprints. Both
// default specs, at schedule seed 0, give these digests.
func TestFingerprintsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"one job", DefaultSpec(), "c0b4ef4864b00b6c9b0994110d3420c07079c08d65eb0b1a19cdced504b5e75d"},
		{"tenants", DefaultTenantsSpec(), "8bf704ef40957a128fd143a49ce2b7aec9bd8036c4d176cb0a45878e8ec633d0"},
	} {
		out, err := RunPipeline(c.sp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Fingerprint != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, out.Fingerprint, c.want)
		}
	}
}

// TestSpecJSON: a spec without jobs encodes exactly as it did before
// specs could carry jobs, so a subprocess runner's environment is
// unchanged, and every spec decodes back to itself.
func TestSpecJSON(t *testing.T) {
	full := DefaultSpec()
	full.MemLimit, full.Plan, full.Seed, full.Overrides = 4<<20, "kill:0@0/1;drop:1/2:1", 9, "tb:ready/x=1"
	tenants := DefaultTenantsSpec()
	tenants.Plan = "killjob:alpha@1"
	for _, c := range []struct {
		sp   Spec
		want string
	}{
		{DefaultSpec(), `{"ranks":4,"workers":3,"timesteps":4,"block_bytes":1048576,"seed":0}`},
		{full, `{"ranks":4,"workers":3,"timesteps":4,"block_bytes":1048576,"mem_limit":4194304,"plan":"kill:0@0/1;drop:1/2:1","seed":9,"overrides":"tb:ready/x=1"}`},
		{tenants, ""},
	} {
		raw, err := json.Marshal(c.sp)
		if err != nil {
			t.Fatal(err)
		}
		if c.want != "" && string(raw) != c.want {
			t.Errorf("encoding %s, want %s", raw, c.want)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, c.sp) {
			t.Errorf("round trip of %s gave %+v", raw, back)
		}
	}
}
