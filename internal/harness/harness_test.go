package harness

import (
	"math"
	"runtime"
	"testing"
	"time"

	"deisago/internal/ml"
	"deisago/internal/ndarray"
	"deisago/internal/sim"
)

func smallConfig(sys System) Config {
	return Config{
		System:     sys,
		Ranks:      4,
		Workers:    2,
		Timesteps:  3,
		BlockBytes: 1 << 20,
		Seed:       7,
	}
}

// referenceComponents computes the expected IPCA result directly: the
// serial Heat2D field per step, folded to (Y × X) batches, fed to a local
// incremental PCA in the same order as the distributed drivers.
func referenceComponents(t *testing.T, cfg Config) *ml.IncrementalPCA {
	t.Helper()
	cfg.defaults(nil)
	heatCfg := sim.Config{
		GlobalX: cfg.RealLocalX,
		GlobalY: cfg.RealLocalY * cfg.Ranks,
		ProcX:   1, ProcY: cfg.Ranks,
		Alpha:    0.2,
		CellCost: 1e-12,
	}
	init := sim.HotSpotInitial(heatCfg)
	est := ml.NewIncrementalPCA(cfg.Model.NComponents)
	for step := 1; step <= cfg.Timesteps; step++ {
		u := sim.RunSerial(heatCfg, init, step)
		batch := ndarray.New(heatCfg.GlobalY, heatCfg.GlobalX)
		for y := 0; y < heatCfg.GlobalY; y++ {
			for x := 0; x < heatCfg.GlobalX; x++ {
				batch.Set(u.At(x, y), y, x)
			}
		}
		if err := est.PartialFit(batch); err != nil {
			t.Fatal(err)
		}
	}
	return est
}

func TestAllSystemsComputeIdenticalIPCA(t *testing.T) {
	want := referenceComponents(t, smallConfig(DEISA3))
	for _, sys := range []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA2, DEISA3} {
		res, err := Run(smallConfig(sys))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.Components == nil {
			t.Fatalf("%s: no components", sys)
		}
		if !ndarray.AllClose(res.Components, want.Components, 1e-9) {
			t.Fatalf("%s components differ from reference:\n got %v\nwant %v",
				sys, res.Components, want.Components)
		}
		for i, sv := range want.SingularValues {
			if math.Abs(res.SingularValues[i]-sv) > 1e-9*(1+sv) {
				t.Fatalf("%s singular values differ: %v vs %v", sys, res.SingularValues, want.SingularValues)
			}
		}
	}
}

func TestTimingsArePositiveAndOrdered(t *testing.T) {
	results := map[System]*Result{}
	for _, sys := range []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3} {
		res, err := Run(smallConfig(sys))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.SimStepMean <= 0 || res.CommMean <= 0 || res.AnalyticsTime <= 0 {
			t.Fatalf("%s: non-positive timings %+v", sys, res)
		}
		if res.SimMakespan <= 0 {
			t.Fatalf("%s: no makespan", sys)
		}
		if len(res.PerRankCommMean) != 4 {
			t.Fatalf("%s: per-rank stats missing", sys)
		}
		results[sys] = res
	}
	// The old IPCA must not be faster than the new IPCA post hoc (it
	// performs duplicate reads and serializes submissions).
	if results[PostHocOldIPCA].AnalyticsTime <= results[PostHocNewIPCA].AnalyticsTime {
		t.Fatalf("old IPCA (%v) should be slower than new IPCA (%v) post hoc",
			results[PostHocOldIPCA].AnalyticsTime, results[PostHocNewIPCA].AnalyticsTime)
	}
	// At this small scale DEISA1 and DEISA3 are comparable (as in the
	// paper); allow jitter-level differences only.
	if results[DEISA1].CommMean < 0.9*results[DEISA3].CommMean {
		t.Fatalf("DEISA1 comm (%v) implausibly beats DEISA3 (%v) at small scale",
			results[DEISA1].CommMean, results[DEISA3].CommMean)
	}
}

func TestDeisa1SlowerAtScale(t *testing.T) {
	// With more ranks the DEISA1 per-timestep metadata overloads the
	// scheduler; the coupling cost must clearly exceed DEISA3's (the
	// effect behind the paper's ×7 simulation-side headline).
	// Paper-scale blocks: the compute step (~0.3 s) re-synchronizes the
	// ranks every iteration, so they collide at the scheduler.
	mk := func(sys System) Config {
		c := smallConfig(sys)
		c.Ranks = 16
		c.Workers = 8
		c.BlockBytes = 32 << 20
		return c
	}
	r1, err := Run(mk(DEISA1))
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(mk(DEISA3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.CommMean < 1.5*r3.CommMean {
		t.Fatalf("DEISA1 comm (%v) should be well above DEISA3 (%v) at 16 ranks",
			r1.CommMean, r3.CommMean)
	}
}

// Protocol message-count formulas are asserted over a (T, R, heartbeat)
// matrix in formula_test.go, sourced from the metrics registry.

func TestDeisa1GraphCadence(t *testing.T) {
	r1, err := Run(smallConfig(DEISA1))
	if err != nil {
		t.Fatal(err)
	}
	// Two graphs per step (stats + fit) plus final extraction.
	T := int64(3)
	if g := r1.Metrics.Counter("dask/graphs_submitted"); g != 2*T+1 {
		t.Fatalf("DEISA1 graphs = %d, want %d", g, 2*T+1)
	}
}

func TestResultDerivedMetrics(t *testing.T) {
	res, err := Run(smallConfig(DEISA3))
	if err != nil {
		t.Fatal(err)
	}
	if res.SimBandwidthMiBps() <= 0 || res.AnalyticsBandwidthMiBps() <= 0 {
		t.Fatal("bandwidths not positive")
	}
	if res.SimCommCostCoreHours() <= 0 || res.AnalyticsCostCoreHours() <= 0 ||
		res.SimComputeCostCoreHours() <= 0 {
		t.Fatal("costs not positive")
	}
	if res.SimNodes != 2 || res.AnalyticsNodes != 3 {
		t.Fatalf("node counts: sim=%d analytics=%d", res.SimNodes, res.AnalyticsNodes)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{System: DEISA3}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestSystemStringAndPredicates(t *testing.T) {
	if DEISA3.String() != "DEISA3" || PostHocOldIPCA.String() != "PostHoc-IPCA" {
		t.Fatal("String")
	}
	if !DEISA3.InTransit() || PostHocNewIPCA.InTransit() {
		t.Fatal("InTransit")
	}
	if !DEISA3.NewIPCA() || DEISA1.NewIPCA() || !PostHocNewIPCA.NewIPCA() {
		t.Fatal("NewIPCA")
	}
	m := DefaultModel()
	if m.Heartbeat(DEISA1) != 5 || m.Heartbeat(DEISA2) != 60 || !math.IsInf(m.Heartbeat(DEISA3), 1) {
		t.Fatal("Heartbeat")
	}
}

// TestRunLeavesNoGoroutines: every goroutine a run starts (workers,
// ranks, bridges, analytics, tenant drivers) has exited by the time Run
// returns, with or without jobs, give or take a short settling deadline.
func TestRunLeavesNoGoroutines(t *testing.T) {
	start := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > start {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s leaves %d goroutines (started with %d):\n%s", what, n-start, start, buf[:runtime.Stack(buf, true)])
		}
	}
	for _, sys := range []System{DEISA1, DEISA3} {
		if _, err := Run(smallConfig(sys)); err != nil {
			t.Fatal(err)
		}
		settled(sys.String())
	}
	if _, err := Run(mjConfig, mjJobs(2)...); err != nil {
		t.Fatal(err)
	}
	settled("2-tenant Run")
}
