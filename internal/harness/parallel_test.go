package harness

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"deisago/internal/chaos"
)

// tinyOptions is a sweep small enough for determinism tests to run the
// same sweep several times.
func tinyOptions(parallel int) Options {
	o := QuickOptions()
	o.Runs = 2
	o.Timesteps = 2
	o.WeakProcs = []int{2, 4}
	o.BlockBytes = 4 * MiB
	o.Parallel = parallel
	return o
}

// fingerprint serializes the parts of a Result the simulator guarantees
// are a pure function of its Config: the canonical (counter-only) metrics
// snapshot, bridge block statistics and the
// analytics values. Virtual timings are deliberately excluded — they are
// FCFS-tie sensitive with or without sweep parallelism (see the golden
// test's contract), so they are compared statistically, never bitwise.
func fingerprint(r *Result) string {
	var b strings.Builder
	b.Write(r.Metrics.CanonicalJSON())
	fmt.Fprintf(&b, "\nsent=%d skipped=%d\n", r.BlocksSent, r.BlocksSkipped)
	if r.Components != nil {
		fmt.Fprintf(&b, "shape=%v data=", r.Components.Shape())
		for _, v := range r.Components.Data() {
			fmt.Fprintf(&b, "%016x", math.Float64bits(v))
		}
		b.WriteString("\n")
	}
	for _, v := range r.SingularValues {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	b.WriteString("/")
	for _, v := range r.ExplainedVariance {
		fmt.Fprintf(&b, "%016x", math.Float64bits(v))
	}
	return b.String()
}

// TestSweepParallelDeterminism asserts the tentpole's parallel-harness
// contract: every deterministic run output of a concurrent sweep is
// byte-identical to the serial sweep, for any pool width, and every slot
// of the (system, point, run) table is filled in its pre-assigned place.
func TestSweepParallelDeterminism(t *testing.T) {
	pts := [][2]int{{2, 1}, {4, 2}}
	systems := []System{PostHocNewIPCA, DEISA1, DEISA3}
	block := func(int) int64 { return 4 * MiB }
	serial, err := collect(tinyOptions(1), systems, pts, block)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		concurrent, err := collect(tinyOptions(par), systems, pts, block)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range systems {
			for pi := range pts {
				for run := 0; run < 2; run++ {
					a, b := serial[sys][pi][run], concurrent[sys][pi][run]
					if a == nil || b == nil {
						t.Fatalf("parallel=%d: missing slot %s/%v/run%d", par, sys, pts[pi], run)
					}
					if b.Config != a.Config {
						t.Fatalf("parallel=%d: slot %s/%v/run%d holds config %+v, want %+v",
							par, sys, pts[pi], run, b.Config, a.Config)
					}
					if got, want := fingerprint(b), fingerprint(a); got != want {
						t.Fatalf("parallel=%d: %s/%v/run%d diverged from serial:\n%s\nvs\n%s",
							par, sys, pts[pi], run, got, want)
					}
				}
			}
		}
	}
}

// TestChaosParallelDeterminism asserts the chaos twin runs agree with
// serial execution on everything the chaos contract pins down: the fault
// log (a pure function of plan and scenario), the analytics values, and
// the verdict.
func TestChaosParallelDeterminism(t *testing.T) {
	o := tinyOptions(1)
	cfg := ChaosScenarioConfig(o, 4, 4)
	plan, err := chaos.ParsePlan(chaosGoldenPlan)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunChaosParallel(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	concurrent, err := RunChaosParallel(cfg, plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := concurrent.Format(), serial.Format(); got != want {
		t.Fatalf("chaos report diverged under parallel execution:\n%s\nvs\n%s", got, want)
	}
	if got, want := fingerprint(concurrent.Faulty), fingerprint(serial.Faulty); got != want {
		t.Fatalf("faulty-run outputs diverged under parallel execution:\n%s\nvs\n%s", got, want)
	}
	if !serial.Identical || !concurrent.Identical {
		t.Fatalf("chaos analytics diverged from fault-free run (serial=%v parallel=%v)",
			serial.Identical, concurrent.Identical)
	}
}

// TestRunPool exercises the pool helper directly: full coverage of the
// index space, bounded concurrency, and lowest-index error selection.
func TestRunPool(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int64
	var live, peak atomic.Int64
	err := runPool(4, n, func(i int) error {
		cur := live.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		hits[i].Add(1)
		live.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("pool exceeded its width: peak %d", p)
	}

	errLow := errors.New("low")
	err = runPool(3, 10, func(i int) error {
		if i == 2 {
			return errLow
		}
		if i == 7 {
			return fmt.Errorf("high")
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("expected lowest-index error, got %v", err)
	}

	// Serial path short-circuits at the first error.
	ran := 0
	err = runPool(1, 10, func(i int) error {
		ran++
		if i == 3 {
			return errLow
		}
		return nil
	})
	if !errors.Is(err, errLow) || ran != 4 {
		t.Fatalf("serial pool: err=%v ran=%d", err, ran)
	}
}
