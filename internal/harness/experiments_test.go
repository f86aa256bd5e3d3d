package harness

import (
	"strings"
	"testing"
)

// testOptions is even smaller than QuickOptions, for unit tests.
func testOptions() Options {
	o := DefaultOptions()
	o.Runs = 1
	o.Timesteps = 3
	o.WeakProcs = []int{4, 8}
	o.BlockBytes = 8 * MiB
	o.StrongProcs = []int{4, 8}
	o.StrongTotalBytes = 64 * MiB
	o.Fig5Procs = 8
	o.Fig5BlockBytes = 8 * MiB
	return o
}

func seriesByLabel(t *testing.T, tab *Table, label string) Series {
	t.Helper()
	for _, s := range tab.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("series %q not in %s", label, tab.Title)
	return Series{}
}

// execute runs the named views as one sweep and returns their outputs.
func execute(t *testing.T, o Options, names ...string) []Output {
	t.Helper()
	s, err := NewSweep(o, names...)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// viewTable runs one table view on its own.
func viewTable(t *testing.T, o Options, v view) *Table {
	t.Helper()
	outs, err := newSweep(o, v).Execute()
	if err != nil {
		t.Fatal(err)
	}
	return outs[0].(*Table)
}

func TestFig2aShapes(t *testing.T) {
	tab := execute(t, testOptions(), "2a")[0].(*Table)
	if len(tab.XTicks) != 2 || tab.XTicks[0] != "4" {
		t.Fatalf("ticks = %v", tab.XTicks)
	}
	simS := seriesByLabel(t, tab, "Simulation")
	write := seriesByLabel(t, tab, "Post Hoc Write")
	d3 := seriesByLabel(t, tab, "DEISA3 Communication")
	// Simulation weak-scales flat (within 5%).
	if rel := simS.Mean[1] / simS.Mean[0]; rel < 0.95 || rel > 1.05 {
		t.Fatalf("simulation not flat: %v", simS.Mean)
	}
	// Post hoc write grows with process count (shared PFS).
	if write.Mean[1] <= write.Mean[0]*1.1 {
		t.Fatalf("post hoc write did not grow: %v", write.Mean)
	}
	// DEISA3 communication stays roughly flat.
	if rel := d3.Mean[1] / d3.Mean[0]; rel < 0.8 || rel > 1.3 {
		t.Fatalf("DEISA3 comm not flat: %v", d3.Mean)
	}
	// All values positive.
	for _, s := range tab.Series {
		for i, m := range s.Mean {
			if m <= 0 || s.Std[i] < 0 {
				t.Fatalf("bad stats in %s: %v / %v", s.Label, s.Mean, s.Std)
			}
		}
	}
}

func TestFig2bShapes(t *testing.T) {
	tab := execute(t, testOptions(), "2b")[0].(*Table)
	old := seriesByLabel(t, tab, "Post hoc IPCA")
	new_ := seriesByLabel(t, tab, "Post hoc New IPCA")
	d3 := seriesByLabel(t, tab, "DEISA3 New IPCA")
	for i := range old.Mean {
		if old.Mean[i] <= new_.Mean[i] {
			t.Fatalf("old IPCA (%v) not slower than new (%v) post hoc", old.Mean, new_.Mean)
		}
		if d3.Mean[i] >= old.Mean[i] {
			t.Fatalf("DEISA3 (%v) not faster than old post hoc (%v)", d3.Mean, old.Mean)
		}
	}
}

func TestFig3aShapes(t *testing.T) {
	tab := execute(t, testOptions(), "3a")[0].(*Table)
	write := seriesByLabel(t, tab, "Post Hoc Write")
	d3 := seriesByLabel(t, tab, "DEISA3 Communication")
	// Post hoc per-process bandwidth decreases when doubling processes.
	if write.Mean[1] >= write.Mean[0] {
		t.Fatalf("post hoc bandwidth did not degrade: %v", write.Mean)
	}
	// DEISA3 bandwidth roughly stable and higher at scale.
	if d3.Mean[1] < write.Mean[1] {
		t.Fatalf("DEISA3 bandwidth (%v) below post hoc (%v) at scale", d3.Mean, write.Mean)
	}
}

func TestFig4Shapes(t *testing.T) {
	outs := execute(t, testOptions(), "4a", "4b")
	ta, tb := outs[0].(*Table), outs[1].(*Table)
	simS := seriesByLabel(t, ta, "Simulation")
	// Perfect strong scaling: constant core·hours (within 10%).
	if rel := simS.Mean[1] / simS.Mean[0]; rel < 0.9 || rel > 1.1 {
		t.Fatalf("simulation cost not constant: %v", simS.Mean)
	}
	write := seriesByLabel(t, ta, "Post Hoc Write")
	d3 := seriesByLabel(t, ta, "DEISA3 Communication")
	last := len(write.Mean) - 1
	if write.Mean[last] <= d3.Mean[last] {
		t.Fatalf("post hoc write cost (%v) not above DEISA3 (%v)", write.Mean, d3.Mean)
	}

	oldC := seriesByLabel(t, tb, "Post hoc IPCA")
	d3C := seriesByLabel(t, tb, "DEISA3 New IPCA")
	if oldC.Mean[last] <= d3C.Mean[last] {
		t.Fatalf("post hoc analytics cost (%v) not above DEISA3 (%v)", oldC.Mean, d3C.Mean)
	}
}

func TestFig5Shapes(t *testing.T) {
	o := testOptions()
	o.Fig5BlockBytes = 32 * MiB // large enough for scheduler collisions
	runs := execute(t, o, "5")[0].(Fig5Panels)
	if len(runs) != 3*o.Runs {
		t.Fatalf("got %d panels, want %d", len(runs), 3*o.Runs)
	}
	band := map[System]float64{}
	for _, r := range runs {
		if len(r.Mean) != o.Fig5Procs || len(r.Std) != o.Fig5Procs {
			t.Fatalf("panel size: %d ranks", len(r.Mean))
		}
		var avg float64
		for _, s := range r.Std {
			avg += s
		}
		band[r.System] += avg / float64(len(r.Std))
	}
	// The DEISA1 variability band must dominate DEISA3's.
	if band[DEISA1] <= band[DEISA3] {
		t.Fatalf("DEISA1 band (%v) not above DEISA3 (%v)", band[DEISA1], band[DEISA3])
	}
	if out := runs.Format(); !strings.Contains(out, "DEISA1") || !strings.Contains(out, "band") {
		t.Fatal("FormatFig5 output malformed")
	}
}

func TestHeadlineRatios(t *testing.T) {
	o := testOptions()
	o.WeakProcs = []int{8}
	o.BlockBytes = 32 * MiB
	h := execute(t, o, "headline")[0].(*Headline)
	if h.SimSpeedupVsDeisa1 < 1 {
		t.Fatalf("sim speedup %v < 1", h.SimSpeedupVsDeisa1)
	}
	if h.AnalyticsSpeedupVsDeisa1 < 1 {
		t.Fatalf("analytics speedup %v < 1", h.AnalyticsSpeedupVsDeisa1)
	}
	if h.CostRatioVsPostHocWrite < 1 {
		t.Fatalf("cost ratio %v < 1", h.CostRatioVsPostHocWrite)
	}
	if out := h.Format(); !strings.Contains(out, "paper") {
		t.Fatal("Format missing paper reference")
	}
}

func TestMetadataCountsFormulas(t *testing.T) {
	o := testOptions()
	o.WeakProcs = []int{4} // 4 ranks, 2 workers
	mc := execute(t, o, "meta")[0].(*MetadataCounts)
	T, R := int64(o.Timesteps), int64(4)
	if mc.DEISA1Queue != 2*T*R {
		t.Fatalf("queue ops %d != 2TR %d", mc.DEISA1Queue, 2*T*R)
	}
	if mc.DEISA1Meta != T*R {
		t.Fatalf("metadata %d != TR %d", mc.DEISA1Meta, T*R)
	}
	if mc.DEISA3Variable != 3+R {
		t.Fatalf("variable ops %d != 3+R %d", mc.DEISA3Variable, 3+R)
	}
	if mc.DEISA3External != T*R {
		t.Fatalf("external %d != TR %d", mc.DEISA3External, T*R)
	}
	if out := mc.Format(); !strings.Contains(out, "2*T*R") {
		t.Fatal("Format malformed")
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tab := &Table{
		Title:  "T",
		XLabel: "x", YLabel: "y",
		XTicks: []string{"1", "2"},
		Series: []Series{{Label: "s", Mean: []float64{1, 2}, Std: []float64{0.1, 0.2}}},
	}
	txt := tab.Format()
	if !strings.Contains(txt, "T") || !strings.Contains(txt, "1±0.1") {
		t.Fatalf("Format = %q", txt)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "series,1,2") || !strings.Contains(csv, "s,1,2") {
		t.Fatalf("CSV = %q", csv)
	}
}

func TestDefaultAndQuickOptions(t *testing.T) {
	d := DefaultOptions()
	if d.Runs != 3 || d.Timesteps != 10 || d.BlockBytes != 128*MiB {
		t.Fatalf("DefaultOptions = %+v", d)
	}
	q := QuickOptions()
	if q.Runs >= d.Runs && q.BlockBytes >= d.BlockBytes {
		t.Fatal("QuickOptions not smaller than default")
	}
	var o Options
	o.defaults()
	if o.Runs != 3 {
		t.Fatal("zero Options did not default")
	}
}

// TestViewsReadOneRunSet checks that views selected together read the
// same runs: with one run per configuration, Fig 3a's bandwidth is the
// block size over Fig 2a's coupling time bit for bit, the headline's
// coupling ratio is Fig 2a's last column, and the metadata counts are
// the weak set's first-run counters.
func TestViewsReadOneRunSet(t *testing.T) {
	o := testOptions()
	s, err := NewSweep(o, "2a", "3a", "headline", "meta")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	fig2a, fig3a := s.views[0].render(res).(*Table), s.views[1].render(res).(*Table)
	h, mc := s.views[2].render(res).(*Headline), s.views[3].render(res).(*MetadataCounts)
	for _, label := range []string{"Post Hoc Write", "DEISA1 Communication", "DEISA3 Communication"} {
		comm, bw := seriesByLabel(t, fig2a, label), seriesByLabel(t, fig3a, label)
		for x := range comm.Mean {
			if want := float64(o.BlockBytes) / MiB / comm.Mean[x]; bw.Mean[x] != want {
				t.Errorf("%s at %s: Fig 3a %v, Fig 2a gives %v", label, fig2a.XTicks[x], bw.Mean[x], want)
			}
		}
	}
	d1, d3 := seriesByLabel(t, fig2a, "DEISA1 Communication"), seriesByLabel(t, fig2a, "DEISA3 Communication")
	last := len(d1.Mean) - 1
	if want := d1.Mean[last] / d3.Mean[last]; h.SimSpeedupVsDeisa1 != want {
		t.Errorf("headline coupling ratio %v, Fig 2a gives %v", h.SimSpeedupVsDeisa1, want)
	}
	first := func(sys System) *Result {
		c := largest(o, sys)
		c.Seed = figureSeed(0)
		return res[c]
	}
	m1, m3 := first(DEISA1).Metrics, first(DEISA3).Metrics
	if mc.DEISA1Queue != m1.Counter("dask/queue_ops") || mc.DEISA1Meta != m1.Counter("dask/metadata_msgs") ||
		mc.DEISA3Variable != m3.Counter("dask/variable_ops") || mc.DEISA3External != m3.Counter("dask/external_created") {
		t.Errorf("metadata counts %+v differ from the weak set's first runs", mc)
	}
	// Three systems at each weak point, plus the headline's post hoc
	// IPCA run at the largest.
	if got, want := s.Runs(), 3*len(o.WeakProcs)+1; got != want {
		t.Errorf("sweep ran %d simulations, want %d", got, want)
	}
}

// TestSweepConfigCounts counts, without running anything, the distinct
// configurations a selection runs. -all at paper scale is the 60 weak
// runs (4 systems × 5 points × 3), the 36 strong runs (4 × 3 × 3) less
// the 12 at 64 processes, which are the weak ones (8 GiB / 64 =
// 128 MiB), and the 9 Fig 5 runs. No single view runs more than it did
// when each view ran its own sweep.
func TestSweepConfigCounts(t *testing.T) {
	count := func(o Options, names ...string) int {
		s, err := NewSweep(o, names...)
		if err != nil {
			t.Fatal(err)
		}
		return s.Runs()
	}
	all := []string{"2a", "2b", "3a", "3b", "4a", "4b", "5", "meta", "headline"}
	o := DefaultOptions()
	weak, strong, fig5 := count(o, "2b"), count(o, "4b"), count(o, "5")
	if weak != 60 || strong != 36 || fig5 != 9 || count(o, "2b", "4b") != 84 {
		t.Fatalf("weak %d, strong %d, fig5 %d, weak+strong %d; want 60, 36, 9, 84",
			weak, strong, fig5, count(o, "2b", "4b"))
	}
	if got := count(o, all...); got != 93 {
		t.Fatalf("-all runs %d simulations, want 93", got)
	}
	if got := count(QuickOptions(), all...); got != 38 {
		t.Fatalf("-quick -all runs %d simulations, want 38", got)
	}
	before := map[string]int{
		"2a": 45, "2b": 60, "3a": 45, "3b": 60, "4a": 27, "4b": 36, "5": 9, "meta": 2, "headline": 12,
		"ablation-heartbeat": 15, "ablation-metadata": 18, "ablation-contract": 12,
		"ablation-placement": 6, "ablation-fuse": 6,
	}
	for name, limit := range before {
		if got := count(o, name); got > limit {
			t.Errorf("%s runs %d simulations, more than %d", name, got, limit)
		}
	}
	if _, err := NewSweep(o, "2a", "9"); err == nil {
		t.Fatal("unknown view accepted")
	}
}
