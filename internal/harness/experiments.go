package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"deisago/internal/vtime"
)

// This file regenerates the paper's figures. Each Fig* function runs the
// required configurations (three runs each, like the paper's "three runs
// of 10 timesteps") and returns a Table whose rows match the figure's
// bars/curves.

// MiB is one mebibyte.
const MiB = 1 << 20

// GiB is one gibibyte.
const GiB = 1 << 30

// Series is one labelled curve/bar group of a figure. Unit, when set,
// names the series' own measurement unit; tables whose series mix units
// (e.g. seconds next to message counts) set it per series instead of
// pretending one Y axis covers all of them.
type Series struct {
	Label string
	Unit  string
	Mean  []float64
	Std   []float64
}

// axisLabel is the row label shown for a series: the label plus its unit
// when the series carries one.
func (s *Series) axisLabel() string {
	if s.Unit == "" {
		return s.Label
	}
	return s.Label + " [" + s.Unit + "]"
}

// Table is the data behind one figure.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	XTicks []string
	Series []Series
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-24s", t.XLabel+" \\ "+t.YLabel)
	for _, x := range t.XTicks {
		fmt.Fprintf(&b, "%16s", x)
	}
	b.WriteString("\n")
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%-24s", s.axisLabel())
		for i := range s.Mean {
			cell := fmt.Sprintf("%.3g±%.2g", s.Mean[i], s.Std[i])
			fmt.Fprintf(&b, "%16s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series,%s\n", strings.Join(t.XTicks, ","))
	for _, s := range t.Series {
		b.WriteString(s.axisLabel())
		for i := range s.Mean {
			fmt.Fprintf(&b, ",%g", s.Mean[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Options tunes experiment scale; the zero value reproduces the paper's
// configurations. Smaller settings are used by tests and quick runs.
type Options struct {
	Model Model
	// Runs is the number of repetitions per configuration (paper: 3).
	Runs int
	// Timesteps per run (paper: 10).
	Timesteps int
	// WeakProcs are the weak-scaling process counts (paper: 4..64).
	WeakProcs []int
	// BlockBytes is the weak-scaling per-process block (paper: 128 MiB).
	BlockBytes int64
	// StrongProcs are the strong-scaling process counts (paper: 16..64).
	StrongProcs []int
	// StrongTotalBytes is the strong-scaling problem size (paper: 8 GiB).
	StrongTotalBytes int64
	// Fig5Procs / Fig5BlockBytes configure Experiment II (paper: 128
	// processes, 1 GiB each).
	Fig5Procs      int
	Fig5BlockBytes int64
	// Parallel caps how many independent simulations the sweep helpers
	// run concurrently (0 = GOMAXPROCS, 1 = serial). Each run builds its
	// own machine, fabric, metrics registry and clocks, and every result
	// lands in a slot indexed by (system, point, run), so sweep outputs
	// are byte-identical for any setting.
	Parallel int
}

// DefaultOptions returns the paper's experiment scales.
func DefaultOptions() Options {
	return Options{
		Model:            DefaultModel(),
		Runs:             3,
		Timesteps:        10,
		WeakProcs:        []int{4, 8, 16, 32, 64},
		BlockBytes:       128 * MiB,
		StrongProcs:      []int{16, 32, 64},
		StrongTotalBytes: 8 * GiB,
		Fig5Procs:        128,
		Fig5BlockBytes:   1 * GiB,
	}
}

// QuickOptions returns a reduced scale for tests and smoke runs.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Runs = 2
	o.Timesteps = 4
	o.WeakProcs = []int{4, 8, 16}
	o.BlockBytes = 16 * MiB
	o.StrongProcs = []int{8, 16}
	o.StrongTotalBytes = 256 * MiB
	o.Fig5Procs = 32
	o.Fig5BlockBytes = 64 * MiB
	return o
}

func (o *Options) defaults() {
	if o.Runs == 0 {
		p := o.Parallel
		*o = DefaultOptions()
		o.Parallel = p
	}
	if o.Model.CoresPerNode == 0 {
		o.Model = DefaultModel()
	}
}

// parallel resolves the Parallel option to a concrete worker count.
func (o *Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runPool executes n indexed jobs on at most parallel goroutines and
// returns the lowest-index error (matching what a serial loop would have
// reported). Jobs communicate only through slots they own — pre-indexed
// result arrays — so sweeps produce identical output for any pool size.
func runPool(parallel, n int, job func(i int) error) error {
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runRepeats executes a configuration Runs times with distinct seeds
// (concurrently, up to Options.Parallel) and returns the results in run
// order.
func runRepeats(o Options, cfg Config) ([]*Result, error) {
	out := make([]*Result, o.Runs)
	err := runPool(o.parallel(), o.Runs, func(run int) error {
		c := cfg
		c.Seed = int64(run*1009 + 1)
		c.Model = o.Model
		c.Timesteps = o.Timesteps
		res, err := Run(c)
		if err != nil {
			return fmt.Errorf("%s P=%d W=%d run %d: %w", c.System, c.Ranks, c.Workers, run, err)
		}
		out[run] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func meanStd(vals []float64) (float64, float64) {
	st := vtime.Summarize(vals)
	return st.Mean, st.Std
}

// collect runs all requested systems over a sweep of (ranks, workers)
// pairs and returns results[system][point][run]. The full (system, point,
// run) cross product is flattened into one job list and executed on a
// bounded pool; runs are independent simulations, and each writes its
// pre-assigned slot, so the table is identical to serial execution.
func collect(o Options, systems []System, points [][2]int, blockBytes func(procs int) int64) (map[System][][]*Result, error) {
	out := map[System][][]*Result{}
	type job struct {
		sys     System
		pt, run int
	}
	jobs := make([]job, 0, len(systems)*len(points)*o.Runs)
	for _, sys := range systems {
		per := make([][]*Result, len(points))
		for i := range points {
			per[i] = make([]*Result, o.Runs)
			for run := 0; run < o.Runs; run++ {
				jobs = append(jobs, job{sys, i, run})
			}
		}
		out[sys] = per
	}
	err := runPool(o.parallel(), len(jobs), func(k int) error {
		j := jobs[k]
		pt := points[j.pt]
		cfg := Config{
			System:     j.sys,
			Ranks:      pt[0],
			Workers:    pt[1],
			Timesteps:  o.Timesteps,
			BlockBytes: blockBytes(pt[0]),
			Seed:       int64(j.run*1009 + 1),
			Model:      o.Model,
		}
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("%s P=%d W=%d run %d: %w", cfg.System, cfg.Ranks, cfg.Workers, j.run, err)
		}
		out[j.sys][j.pt][j.run] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func series(label string, points int, f func(point int) []float64) Series {
	s := Series{Label: label}
	for p := 0; p < points; p++ {
		m, sd := meanStd(f(p))
		s.Mean = append(s.Mean, m)
		s.Std = append(s.Std, sd)
	}
	return s
}

func weakPoints(o Options) [][2]int {
	pts := make([][2]int, len(o.WeakProcs))
	for i, p := range o.WeakProcs {
		w := p / 2
		if w < 1 {
			w = 1
		}
		pts[i] = [2]int{p, w}
	}
	return pts
}

func ticks(points [][2]int, idx int) []string {
	out := make([]string, len(points))
	for i, p := range points {
		out[i] = fmt.Sprintf("%d", p[idx])
	}
	return out
}

func pluck(results [][]*Result, point int, f func(*Result) float64) []float64 {
	out := make([]float64, 0, len(results[point]))
	for _, r := range results[point] {
		out = append(out, f(r))
	}
	return out
}

// Fig2a reproduces Figure 2a: weak-scaling per-iteration simulation,
// write, and communication times.
func Fig2a(o Options) (*Table, error) {
	o.defaults()
	pts := weakPoints(o)
	res, err := collect(o, []System{PostHocNewIPCA, DEISA1, DEISA3}, pts,
		func(int) int64 { return o.BlockBytes })
	if err != nil {
		return nil, err
	}
	n := len(pts)
	return &Table{
		Title:  fmt.Sprintf("Fig 2a — weak scaling, simulation side, %d MiB per process (s/iteration)", o.BlockBytes/MiB),
		XLabel: "Processes",
		YLabel: "s/iter",
		XTicks: ticks(pts, 0),
		Series: []Series{
			series("Simulation", n, func(p int) []float64 {
				return pluck(res[DEISA3], p, func(r *Result) float64 { return r.SimStepMean })
			}),
			series("Post Hoc Write", n, func(p int) []float64 {
				return pluck(res[PostHocNewIPCA], p, func(r *Result) float64 { return r.CommMean })
			}),
			series("DEISA1 Communication", n, func(p int) []float64 {
				return pluck(res[DEISA1], p, func(r *Result) float64 { return r.CommMean })
			}),
			series("DEISA3 Communication", n, func(p int) []float64 {
				return pluck(res[DEISA3], p, func(r *Result) float64 { return r.CommMean })
			}),
		},
	}, nil
}

// Fig2b reproduces Figure 2b: weak-scaling analytics durations.
func Fig2b(o Options) (*Table, error) {
	o.defaults()
	pts := weakPoints(o)
	res, err := collect(o, []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3}, pts,
		func(int) int64 { return o.BlockBytes })
	if err != nil {
		return nil, err
	}
	n := len(pts)
	mk := func(label string, sys System) Series {
		return series(label, n, func(p int) []float64 {
			return pluck(res[sys], p, func(r *Result) float64 { return r.AnalyticsTime })
		})
	}
	return &Table{
		Title:  fmt.Sprintf("Fig 2b — weak scaling, analytics, %d MiB per process (s)", o.BlockBytes/MiB),
		XLabel: "Workers",
		YLabel: "s",
		XTicks: ticks(pts, 1),
		Series: []Series{
			mk("Post hoc IPCA", PostHocOldIPCA),
			mk("Post hoc New IPCA", PostHocNewIPCA),
			mk("DEISA1 IPCA", DEISA1),
			mk("DEISA3 New IPCA", DEISA3),
		},
	}, nil
}

// Fig3a reproduces Figure 3a: per-process simulation-side bandwidth.
func Fig3a(o Options) (*Table, error) {
	o.defaults()
	pts := weakPoints(o)
	res, err := collect(o, []System{PostHocNewIPCA, DEISA1, DEISA3}, pts,
		func(int) int64 { return o.BlockBytes })
	if err != nil {
		return nil, err
	}
	n := len(pts)
	mk := func(label string, sys System) Series {
		return series(label, n, func(p int) []float64 {
			return pluck(res[sys], p, func(r *Result) float64 { return r.SimBandwidthMiBps() })
		})
	}
	return &Table{
		Title:  "Fig 3a — weak scaling, communications and I/Os (MiB/s per process)",
		XLabel: "Processes",
		YLabel: "MiB/s",
		XTicks: ticks(pts, 0),
		Series: []Series{
			mk("Post Hoc Write", PostHocNewIPCA),
			mk("DEISA1 Communication", DEISA1),
			mk("DEISA3 Communication", DEISA3),
		},
	}, nil
}

// Fig3b reproduces Figure 3b: analytics bandwidth.
func Fig3b(o Options) (*Table, error) {
	o.defaults()
	pts := weakPoints(o)
	res, err := collect(o, []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3}, pts,
		func(int) int64 { return o.BlockBytes })
	if err != nil {
		return nil, err
	}
	n := len(pts)
	mk := func(label string, sys System) Series {
		return series(label, n, func(p int) []float64 {
			return pluck(res[sys], p, func(r *Result) float64 { return r.AnalyticsBandwidthMiBps() })
		})
	}
	return &Table{
		Title:  "Fig 3b — weak scaling, analytics bandwidth (MiB/s)",
		XLabel: "Workers",
		YLabel: "MiB/s",
		XTicks: ticks(pts, 1),
		Series: []Series{
			mk("Post hoc IPCA", PostHocOldIPCA),
			mk("Post hoc New IPCA", PostHocNewIPCA),
			mk("DEISA1 IPCA", DEISA1),
			mk("DEISA3 New IPCA", DEISA3),
		},
	}, nil
}

func strongPoints(o Options) [][2]int {
	pts := make([][2]int, len(o.StrongProcs))
	for i, p := range o.StrongProcs {
		w := p / 2
		if w < 1 {
			w = 1
		}
		pts[i] = [2]int{p, w}
	}
	return pts
}

// Fig4a reproduces Figure 4a: strong-scaling simulation-side cost in
// core·hours for a fixed problem size.
func Fig4a(o Options) (*Table, error) {
	o.defaults()
	pts := strongPoints(o)
	block := func(procs int) int64 { return o.StrongTotalBytes / int64(procs) }
	res, err := collect(o, []System{PostHocNewIPCA, DEISA1, DEISA3}, pts, block)
	if err != nil {
		return nil, err
	}
	n := len(pts)
	return &Table{
		Title:  fmt.Sprintf("Fig 4a — strong scaling, %d GiB problem, simulation side (core·hours)", o.StrongTotalBytes/GiB),
		XLabel: "Processes",
		YLabel: "core·h",
		XTicks: ticks(pts, 0),
		Series: []Series{
			series("Simulation", n, func(p int) []float64 {
				return pluck(res[DEISA3], p, func(r *Result) float64 { return r.SimComputeCostCoreHours() })
			}),
			series("Post Hoc Write", n, func(p int) []float64 {
				return pluck(res[PostHocNewIPCA], p, func(r *Result) float64 { return r.SimCommCostCoreHours() })
			}),
			series("DEISA1 Communication", n, func(p int) []float64 {
				return pluck(res[DEISA1], p, func(r *Result) float64 { return r.SimCommCostCoreHours() })
			}),
			series("DEISA3 Communication", n, func(p int) []float64 {
				return pluck(res[DEISA3], p, func(r *Result) float64 { return r.SimCommCostCoreHours() })
			}),
		},
	}, nil
}

// Fig4b reproduces Figure 4b: strong-scaling analytics cost in
// core·hours.
func Fig4b(o Options) (*Table, error) {
	o.defaults()
	pts := strongPoints(o)
	block := func(procs int) int64 { return o.StrongTotalBytes / int64(procs) }
	res, err := collect(o, []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3}, pts, block)
	if err != nil {
		return nil, err
	}
	n := len(pts)
	mk := func(label string, sys System) Series {
		return series(label, n, func(p int) []float64 {
			return pluck(res[sys], p, func(r *Result) float64 { return r.AnalyticsCostCoreHours() })
		})
	}
	return &Table{
		Title:  fmt.Sprintf("Fig 4b — strong scaling, %d GiB problem, analytics (core·hours)", o.StrongTotalBytes/GiB),
		XLabel: "Workers",
		YLabel: "core·h",
		XTicks: ticks(pts, 1),
		Series: []Series{
			mk("Post hoc IPCA", PostHocOldIPCA),
			mk("Post hoc New IPCA", PostHocNewIPCA),
			mk("DEISA1 IPCA", DEISA1),
			mk("DEISA3 New IPCA", DEISA3),
		},
	}, nil
}

// Fig5Run is one panel of Figure 5: per-rank mean and std of the
// communication time for one system and one run (allocation).
type Fig5Run struct {
	System System
	Run    int
	Mean   []float64 // per rank
	Std    []float64 // per rank
}

// Fig5 reproduces Figure 5 (Experiment II): per-rank communication-time
// variability for DEISA1/2/3 across independent runs.
func Fig5(o Options) ([]Fig5Run, error) {
	o.defaults()
	systems := []System{DEISA1, DEISA2, DEISA3}
	out := make([]Fig5Run, len(systems)*o.Runs)
	err := runPool(o.parallel(), len(out), func(i int) error {
		sys, run := systems[i/o.Runs], i%o.Runs
		cfg := Config{
			System:     sys,
			Ranks:      o.Fig5Procs,
			Workers:    o.Fig5Procs / 2,
			Timesteps:  o.Timesteps,
			BlockBytes: o.Fig5BlockBytes,
			Seed:       int64(run*271 + 13),
			Model:      o.Model,
		}
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("fig5 %s run %d: %w", sys, run, err)
		}
		out[i] = Fig5Run{
			System: sys,
			Run:    run,
			Mean:   res.PerRankCommMean,
			Std:    res.PerRankCommStd,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatFig5 renders the Figure 5 panels as a compact summary: per-panel
// mean of per-rank means, spread across ranks, and the average per-rank
// std (the paper's "red band").
func FormatFig5(runs []Fig5Run) string {
	var b strings.Builder
	b.WriteString("Fig 5 — per-rank communication time (s): mean over ranks [min..max], avg per-rank std\n")
	for _, r := range runs {
		ms := vtime.Summarize(r.Mean)
		ss := vtime.Summarize(r.Std)
		fmt.Fprintf(&b, "%-8s run %d:  mean %.3f  [%.3f .. %.3f]  band %.4f\n",
			r.System, r.Run+1, ms.Mean, ms.Min, ms.Max, ss.Mean)
	}
	return b.String()
}

// Headline holds the paper's §1/§5 summary ratios.
type Headline struct {
	SimSpeedupVsDeisa1       float64 // DEISA1 comm / DEISA3 comm
	AnalyticsSpeedupVsDeisa1 float64 // DEISA1 analytics / DEISA3 analytics
	CostRatioVsPostHocWrite  float64 // post hoc write cost / DEISA3 comm cost per iteration
	AnalyticsCostVsPostHoc   float64 // post hoc old-IPCA analytics cost / DEISA3 cost
}

// ComputeHeadline measures the headline ratios at the largest weak- and
// strong-scaling configurations.
func ComputeHeadline(o Options) (*Headline, error) {
	o.defaults()
	procs := o.WeakProcs[len(o.WeakProcs)-1]
	pts := [][2]int{{procs, procs / 2}}
	res, err := collect(o, []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3}, pts,
		func(int) int64 { return o.BlockBytes })
	if err != nil {
		return nil, err
	}
	h := &Headline{}
	comm1, _ := meanStd(pluck(res[DEISA1], 0, func(r *Result) float64 { return r.CommMean }))
	comm3, _ := meanStd(pluck(res[DEISA3], 0, func(r *Result) float64 { return r.CommMean }))
	h.SimSpeedupVsDeisa1 = comm1 / comm3
	a1, _ := meanStd(pluck(res[DEISA1], 0, func(r *Result) float64 { return r.AnalyticsTime }))
	a3, _ := meanStd(pluck(res[DEISA3], 0, func(r *Result) float64 { return r.AnalyticsTime }))
	h.AnalyticsSpeedupVsDeisa1 = a1 / a3
	wNew, _ := meanStd(pluck(res[PostHocNewIPCA], 0, func(r *Result) float64 { return r.SimCommCostCoreHours() }))
	c3, _ := meanStd(pluck(res[DEISA3], 0, func(r *Result) float64 { return r.SimCommCostCoreHours() }))
	h.CostRatioVsPostHocWrite = wNew / c3
	aOld, _ := meanStd(pluck(res[PostHocOldIPCA], 0, func(r *Result) float64 { return r.AnalyticsCostCoreHours() }))
	ac3, _ := meanStd(pluck(res[DEISA3], 0, func(r *Result) float64 { return r.AnalyticsCostCoreHours() }))
	h.AnalyticsCostVsPostHoc = aOld / ac3
	return h, nil
}

// Format renders the headline ratios.
func (h *Headline) Format() string {
	return fmt.Sprintf(`Headline ratios (largest weak-scaling configuration)
  simulation-side coupling:  DEISA1 / DEISA3           = x%.1f   (paper: up to x7)
  analytics:                 DEISA1 / DEISA3           = x%.1f   (paper: up to x3)
  coupling cost:             post hoc write / DEISA3   = x%.1f   (paper: x18)
  analytics cost:            post hoc IPCA / DEISA3    = x%.1f   (paper: x3.5)
`, h.SimSpeedupVsDeisa1, h.AnalyticsSpeedupVsDeisa1, h.CostRatioVsPostHocWrite, h.AnalyticsCostVsPostHoc)
}

// MetadataCounts verifies §2.1's message-count claim on real runs:
// DEISA1 sends 2·T·R coordination messages plus heartbeats and metadata;
// the external-task design sends a constant number plus R contract reads.
type MetadataCounts struct {
	Timesteps, Ranks int
	DEISA1Queue      int64
	DEISA1Meta       int64
	DEISA1Heartbeats int64
	DEISA3Variable   int64
	DEISA3External   int64
}

// ComputeMetadataCounts runs both protocols (concurrently, when the pool
// allows) and reads their dask/* registry counters.
func ComputeMetadataCounts(o Options, ranks, workers int) (*MetadataCounts, error) {
	o.defaults()
	systems := [2]System{DEISA1, DEISA3}
	var results [2]*Result
	err := runPool(o.parallel(), 2, func(i int) error {
		cfg := Config{
			System: systems[i], Ranks: ranks, Workers: workers,
			Timesteps: o.Timesteps, BlockBytes: o.BlockBytes, Seed: 1, Model: o.Model,
		}
		r, err := Run(cfg)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	m1, m3 := results[0].Metrics, results[1].Metrics
	return &MetadataCounts{
		Timesteps:        o.Timesteps,
		Ranks:            ranks,
		DEISA1Queue:      m1.Counter("dask/queue_ops"),
		DEISA1Meta:       m1.Counter("dask/metadata_msgs"),
		DEISA1Heartbeats: m1.Counter("dask/heartbeats"),
		DEISA3Variable:   m3.Counter("dask/variable_ops"),
		DEISA3External:   m3.Counter("dask/external_created"),
	}, nil
}

// Format renders the metadata comparison.
func (m *MetadataCounts) Format() string {
	return fmt.Sprintf(`Metadata messages (T=%d timesteps, R=%d ranks)
  DEISA1: queue ops           = %d  (2*T*R = %d)
          metadata refreshes  = %d  (T*R  = %d)
          heartbeats          = %d
  DEISA3: variable ops        = %d  (3+R  = %d), independent of T
          external tasks      = %d  (created once, T*R = %d)
`, m.Timesteps, m.Ranks,
		m.DEISA1Queue, 2*m.Timesteps*m.Ranks,
		m.DEISA1Meta, m.Timesteps*m.Ranks,
		m.DEISA1Heartbeats,
		m.DEISA3Variable, 3+m.Ranks,
		m.DEISA3External, m.Timesteps*m.Ranks)
}
