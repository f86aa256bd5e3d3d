package simtest

import (
	"reflect"
	"strings"
	"testing"

	"deisago/internal/dask"
)

func TestDdminFindsMinimalSubset(t *testing.T) {
	// Failure needs exactly {3, 7} present.
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fails := func(sub []int) bool {
		has3, has7 := false, false
		for _, v := range sub {
			has3 = has3 || v == 3
			has7 = has7 || v == 7
		}
		return has3 && has7
	}
	shrunk := false
	got := ddmin(items, fails, &shrunk)
	if !shrunk || !reflect.DeepEqual(got, []int{3, 7}) {
		t.Fatalf("ddmin = %v (shrunk=%v), want [3 7]", got, shrunk)
	}
}

func TestDdminEmptyFastPath(t *testing.T) {
	calls := 0
	fails := func(sub []int) bool { calls++; return true }
	shrunk := false
	got := ddmin([]int{1, 2, 3, 4}, fails, &shrunk)
	if len(got) != 0 || calls != 1 {
		t.Fatalf("fast path: got %v in %d calls, want [] in 1", got, calls)
	}
}

func TestDdminSingleItem(t *testing.T) {
	shrunk := false
	got := ddmin([]int{9}, func(sub []int) bool { return len(sub) == 1 }, &shrunk)
	if !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("single item: got %v", got)
	}
}

// Shrink over a synthetic predicate: the failure needs one specific
// plan clause and one specific tie-break override; everything else must
// be shaved off.
func TestShrinkMinimisesPlanAndOverrides(t *testing.T) {
	needPlan := "kill:0@1/1"
	needTB := dask.Decision{Point: dask.PointReadyPop, Key: "fit-2", N: 3}

	sp := DefaultSpec()
	sp.Plan = "drop:1/2:1;" + needPlan + ";delay:2/0:0.002"
	sp.Overrides = Overrides{
		needTB: 2,
		{Point: dask.PointAssignWorker, Key: "pca", N: 2}: 1,
		{Point: dask.PointSpillVictim, Key: "w1@4", N: 2}: 1,
		{Point: dask.PointFailover, Key: "blk#0", N: 2}:   1,
		{Point: dask.PointReadyPop, Key: "fit-3", N: 4}:   3,
	}.Format()

	fails := func(s Spec) (bool, string) {
		o, err := ParseOverrides(s.Overrides)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(s.Plan, needPlan) && o[needTB] == 2 {
			return true, "synthetic failure"
		}
		return false, ""
	}
	res, err := Shrink(sp, fails)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Plan != needPlan {
		t.Fatalf("minimal plan %q, want %q", res.Spec.Plan, needPlan)
	}
	wantTB := Overrides{needTB: 2}.Format()
	if res.Spec.Overrides != wantTB {
		t.Fatalf("minimal overrides %q, want %q", res.Spec.Overrides, wantTB)
	}
	if res.Failure != "synthetic failure" {
		t.Fatalf("failure %q", res.Failure)
	}
	if res.Runs == 0 {
		t.Fatal("no predicate evaluations counted")
	}
	// The reproducer replays through the same predicate.
	back, err := ParseRepro(res.Repro)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := fails(back); !ok {
		t.Fatalf("reproducer %q does not fail the predicate", res.Repro)
	}
}

func TestShrinkRejectsPassingSpec(t *testing.T) {
	sp := DefaultSpec()
	if _, err := Shrink(sp, func(Spec) (bool, string) { return false, "" }); err == nil {
		t.Fatal("want error for a spec that does not fail")
	}
}

func TestReproRoundTrip(t *testing.T) {
	sp := DefaultSpec()
	sp.MemLimit = 1 << 21
	sp.Plan = "kill:0@1/1;drop:1/2:1"
	sp.Overrides = Overrides{
		{Point: dask.PointReadyPop, Key: "fit-2", N: 3}: 1,
	}.Format()
	line, err := FormatRepro(sp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRepro(line)
	if err != nil {
		t.Fatal(err)
	}
	back.Trace = nil
	if !reflect.DeepEqual(back, sp) {
		t.Fatalf("round trip:\n  in  %+v\n  out %+v\n  line %q", sp, back, line)
	}
}

// TestReproRefusesJobs: the spec clause has no room for tenants, so a
// spec with jobs has no reproducer line, and Shrink refuses it before
// spending a run.
func TestReproRefusesJobs(t *testing.T) {
	sp := DefaultTenantsSpec()
	if line, err := FormatRepro(sp); err == nil {
		t.Fatalf("FormatRepro dropped the jobs: %q", line)
	}
	runs := 0
	if _, err := Shrink(sp, func(Spec) (bool, string) { runs++; return true, "boom" }); err == nil || runs != 0 {
		t.Fatalf("Shrink of a spec with jobs: err = %v after %d runs", err, runs)
	}
}

func TestParseReproErrors(t *testing.T) {
	for _, bad := range []string{
		"",                                     // no spec clause
		"kill:0@1/1",                           // no spec clause
		"spec:4/3",                             // malformed spec
		"spec:4/3/4/1024/0;spec:4/3/4/1024/0",  // duplicate spec
		"spec:4/3/4/1024/0;tb:ready-pop:1:0:k", // bad tb clause
		"spec:4/3/4/1024/0;warp:9",             // unknown chaos clause
	} {
		if _, err := ParseRepro(bad); err == nil {
			t.Fatalf("ParseRepro(%q) accepted", bad)
		}
	}
}
