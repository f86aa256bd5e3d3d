package harness

import (
	"math"
	"testing"

	"deisago/internal/ndarray"
)

func ablationOptions() Options {
	o := testOptions()
	o.WeakProcs = []int{8}
	o.BlockBytes = 32 * MiB
	return o
}

func TestAblationHeartbeat(t *testing.T) {
	o := ablationOptions()
	tab := viewTable(t, o, ablationHeartbeat(o, []float64{0.5, math.Inf(1)}))
	if len(tab.XTicks) != 2 || tab.XTicks[1] != "inf" {
		t.Fatalf("ticks = %v", tab.XTicks)
	}
	beats := seriesByLabel(t, tab, "Heartbeat msgs")
	if beats.Mean[0] <= 0 {
		t.Fatalf("0.5 s interval sent no heartbeats: %v", beats.Mean)
	}
	if beats.Mean[1] != 0 {
		t.Fatalf("infinite interval sent heartbeats: %v", beats.Mean)
	}
	comm := seriesByLabel(t, tab, "Coupling s/iter")
	// Heartbeats are cheap at this scale; disabling them must not raise
	// the coupling time beyond jitter noise.
	if comm.Mean[1] > comm.Mean[0]*1.02 {
		t.Fatalf("disabling heartbeats raised coupling time: %v", comm.Mean)
	}
}

func TestAblationMetadata(t *testing.T) {
	o := ablationOptions()
	tab := viewTable(t, o, ablationMetadata(o, []float64{0, 1e-3}))
	d1 := seriesByLabel(t, tab, "DEISA1 coupling s/iter")
	d3 := seriesByLabel(t, tab, "DEISA3 reference")
	// With no metadata cost DEISA1 approaches DEISA3.
	if d1.Mean[0] > d3.Mean[0]*1.5 {
		t.Fatalf("zero-cost DEISA1 (%v) far above DEISA3 (%v)", d1.Mean[0], d3.Mean[0])
	}
	// With the calibrated cost it must clearly exceed it.
	if d1.Mean[1] <= d1.Mean[0] {
		t.Fatalf("metadata cost had no effect: %v", d1.Mean)
	}
}

func TestAblationContract(t *testing.T) {
	o := ablationOptions()
	tab := viewTable(t, o, ablationContract(o, []float64{0.5, 1.0}))
	sent := seriesByLabel(t, tab, "Blocks shipped")
	traffic := seriesByLabel(t, tab, "Fabric GiB")
	// Half the selection ships half the blocks and less traffic.
	if sent.Mean[0] >= sent.Mean[1] {
		t.Fatalf("selection did not reduce blocks: %v", sent.Mean)
	}
	if math.Abs(sent.Mean[0]*2-sent.Mean[1]) > 1e-9 {
		t.Fatalf("half selection should ship half the blocks: %v", sent.Mean)
	}
	if traffic.Mean[0] >= traffic.Mean[1] {
		t.Fatalf("selection did not reduce traffic: %v", traffic.Mean)
	}
}

func TestAblationPlacement(t *testing.T) {
	o := ablationOptions()
	tab := viewTable(t, o, ablationPlacement(o))
	analytics := seriesByLabel(t, tab, "Analytics s")
	if analytics.Mean[0] <= 0 || analytics.Mean[1] <= 0 {
		t.Fatalf("bad analytics times: %v", analytics.Mean)
	}
	// Scattered placement must not beat preselected placement (it breaks
	// chain locality); allow jitter-level equality.
	if analytics.Mean[1] < analytics.Mean[0]*0.95 {
		t.Fatalf("scattered placement (%v) beat preselected (%v)",
			analytics.Mean[1], analytics.Mean[0])
	}
}

func TestAblationFuse(t *testing.T) {
	o := ablationOptions()
	tab := viewTable(t, o, ablationFuse(o))
	tasks := seriesByLabel(t, tab, "Tasks registered")
	if tasks.Mean[1] >= tasks.Mean[0] {
		t.Fatalf("fusion did not reduce tasks: %v", tasks.Mean)
	}
}

func TestFusedRunMatchesUnfused(t *testing.T) {
	base := smallConfig(DEISA3)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.FuseGraphs = true
	fused, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !ndarray.AllClose(plain.Components, fused.Components, 1e-12) {
		t.Fatal("fusion changed the analytics result")
	}
	f, p := fused.Metrics.Counter("dask/tasks_registered"), plain.Metrics.Counter("dask/tasks_registered")
	if f >= p {
		t.Fatalf("fusion did not reduce tasks: %d vs %d", f, p)
	}
}
