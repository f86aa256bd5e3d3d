package harness

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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

// TestSweepParallelDeterminism asserts the engine's parallel contract:
// every deterministic run output of a pooled sweep is byte-identical to
// the serial sweep, for any pool width, each result sits under its own
// configuration, and an ablation table's deterministic series (blocks
// shipped, fabric bytes) render identically.
func TestSweepParallelDeterminism(t *testing.T) {
	sweep := func(par int) (*Sweep, map[Config]*Result, *Table) {
		o := tinyOptions(par)
		s := newSweep(o, views["2a"](o), ablationContract(o, []float64{0.5, 1}))
		res, err := s.run()
		if err != nil {
			t.Fatal(err)
		}
		return s, res, s.views[1].render(res).(*Table)
	}
	s, serial, serialTab := sweep(1)
	for _, par := range []int{2, 8} {
		_, concurrent, tab := sweep(par)
		for _, c := range s.configs {
			a, b := serial[c], concurrent[c]
			if a == nil || b == nil {
				t.Fatalf("parallel=%d: missing result for %s P=%d seed %d", par, c.System, c.Ranks, c.Seed)
			}
			if b.Config != a.Config {
				t.Fatalf("parallel=%d: result holds config %+v, want %+v", par, b.Config, a.Config)
			}
			if got, want := fingerprint(b), fingerprint(a); got != want {
				t.Fatalf("parallel=%d: %s P=%d seed %d diverged from serial:\n%s\nvs\n%s",
					par, c.System, c.Ranks, c.Seed, got, want)
			}
		}
		for _, label := range []string{"Blocks shipped", "Fabric GiB"} {
			got, want := seriesByLabel(t, tab, label), seriesByLabel(t, serialTab, label)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel=%d: %s = %+v, serial %+v", par, label, got, want)
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
