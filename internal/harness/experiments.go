package harness

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"deisago/internal/vtime"
)

// This file regenerates the paper's figures. Each figure, ablation and
// summary is a view: the configurations it reads (three runs each, like
// the paper's "three runs of 10 timesteps") and how it renders their
// results. A Sweep runs the distinct configurations of every selected
// view once and renders all of them from that one result set, so
// figures the paper draws from one experiment read the same runs.

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
	// Parallel caps how many independent simulations run concurrently
	// per invocation (0 = GOMAXPROCS, 1 = serial). Each run builds its
	// own machine, fabric, metrics registry and clocks, and every result
	// lands in a slot owned by its configuration, so outputs are
	// byte-identical for any setting.
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

func meanStd(vals []float64) (float64, float64) {
	st := vtime.Summarize(vals)
	return st.Mean, st.Std
}

// Output is what a view renders: a *Table, Fig5Panels, a *Headline or
// a *MetadataCounts.
type Output interface{ Format() string }

// A view is one figure, ablation or summary, declared as the
// configurations it reads (seeds set) and how it renders their results.
// Views never run anything; a Sweep runs their configurations.
type view struct {
	configs []Config
	render  func(results map[Config]*Result) Output
}

// views maps every selectable name to its view.
var views = map[string]func(Options) view{
	"2a": func(o Options) view {
		return scalingView(o, false, Table{
			Title:  fmt.Sprintf("Fig 2a — weak scaling, simulation side, %d MiB per process (s/iteration)", o.BlockBytes/MiB),
			XLabel: "Processes", YLabel: "s/iter",
		}, append([]curve{{"Simulation", "", DEISA3, simStep}}, couplingCurves(commMean)...)...)
	},
	"2b": func(o Options) view {
		return scalingView(o, false, Table{
			Title:  fmt.Sprintf("Fig 2b — weak scaling, analytics, %d MiB per process (s)", o.BlockBytes/MiB),
			XLabel: "Workers", YLabel: "s",
		}, analyticsCurves(analyticsTime)...)
	},
	"3a": func(o Options) view {
		return scalingView(o, false, Table{
			Title:  "Fig 3a — weak scaling, communications and I/Os (MiB/s per process)",
			XLabel: "Processes", YLabel: "MiB/s",
		}, couplingCurves((*Result).SimBandwidthMiBps)...)
	},
	"3b": func(o Options) view {
		return scalingView(o, false, Table{
			Title:  "Fig 3b — weak scaling, analytics bandwidth (MiB/s)",
			XLabel: "Workers", YLabel: "MiB/s",
		}, analyticsCurves((*Result).AnalyticsBandwidthMiBps)...)
	},
	"4a": func(o Options) view {
		return scalingView(o, true, Table{
			Title:  fmt.Sprintf("Fig 4a — strong scaling, %d GiB problem, simulation side (core·hours)", o.StrongTotalBytes/GiB),
			XLabel: "Processes", YLabel: "core·h",
		}, append([]curve{{"Simulation", "", DEISA3, (*Result).SimComputeCostCoreHours}},
			couplingCurves((*Result).SimCommCostCoreHours)...)...)
	},
	"4b": func(o Options) view {
		return scalingView(o, true, Table{
			Title:  fmt.Sprintf("Fig 4b — strong scaling, %d GiB problem, analytics (core·hours)", o.StrongTotalBytes/GiB),
			XLabel: "Workers", YLabel: "core·h",
		}, analyticsCurves((*Result).AnalyticsCostCoreHours)...)
	},
	"5":                  fig5,
	"meta":               metadataCounts,
	"headline":           headline,
	"ablation-heartbeat": func(o Options) view { return ablationHeartbeat(o, nil) },
	"ablation-metadata":  func(o Options) view { return ablationMetadata(o, nil) },
	"ablation-contract":  func(o Options) view { return ablationContract(o, nil) },
	"ablation-placement": ablationPlacement,
	"ablation-fuse":      ablationFuse,
}

// Sweep is the run set of one invocation: the selected views and the
// distinct configurations they read. Each configuration runs once,
// however many views read it.
type Sweep struct {
	parallel int
	views    []view
	configs  []Config // distinct, in first-read order
}

// NewSweep resolves view names against o: "2a", "2b", "3a", "3b", "4a",
// "4b", "5", "meta", "headline", and "ablation-" followed by heartbeat,
// metadata, contract, placement or fuse. An unknown name is an error.
// Nothing runs until Execute.
func NewSweep(o Options, names ...string) (*Sweep, error) {
	o.defaults()
	vs := make([]view, len(names))
	for i, name := range names {
		mk, ok := views[name]
		if !ok {
			return nil, fmt.Errorf("unknown figure or ablation %q", name)
		}
		vs[i] = mk(o)
	}
	return newSweep(o, vs...), nil
}

func newSweep(o Options, vs ...view) *Sweep {
	s := &Sweep{parallel: o.parallel(), views: vs}
	seen := map[Config]bool{}
	for _, v := range vs {
		for _, c := range v.configs {
			if !seen[c] {
				seen[c] = true
				s.configs = append(s.configs, c)
			}
		}
	}
	return s
}

// Runs is the number of simulations Execute runs.
func (s *Sweep) Runs() int { return len(s.configs) }

// Execute runs every distinct configuration once, up to Options.Parallel
// at a time, and renders the views, in name order, from that one result
// set.
func (s *Sweep) Execute() ([]Output, error) {
	res, err := s.run()
	if err != nil {
		return nil, err
	}
	out := make([]Output, len(s.views))
	for i, v := range s.views {
		out[i] = v.render(res)
	}
	return out, nil
}

// run executes the configurations; each run fills the slot of its own
// index, so the result set is the same for any pool width.
func (s *Sweep) run() (map[Config]*Result, error) {
	slots := make([]*Result, len(s.configs))
	err := runPool(s.parallel, len(s.configs), func(i int) error {
		c := s.configs[i]
		r, err := Run(c)
		if err != nil {
			return fmt.Errorf("%s P=%d W=%d seed %d: %w", c.System, c.Ranks, c.Workers, c.Seed, err)
		}
		slots[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := make(map[Config]*Result, len(slots))
	for i, c := range s.configs {
		res[c] = slots[i]
	}
	return res, nil
}

// figureSeed is the seed rule of the Fig 2–4 runs, the headline and the
// metadata counts.
func figureSeed(run int) int64 { return int64(run*1009 + 1) }

// seeded returns the Runs repetitions of cfg under a seed rule.
func seeded(o Options, cfg Config, seed func(run int) int64) []Config {
	out := make([]Config, o.Runs)
	for run := range out {
		out[run] = cfg
		out[run].Seed = seed(run)
	}
	return out
}

func values(res map[Config]*Result, cfgs []Config, f func(*Result) float64) []float64 {
	out := make([]float64, len(cfgs))
	for i, c := range cfgs {
		out[i] = f(res[c])
	}
	return out
}

// workers is the analytics side paired with p simulation processes.
func workers(p int) int { return max(p/2, 1) }

// point is one system at p processes, workers(p) workers and the given
// block; the view sets the seed.
func point(o Options, sys System, p int, block int64) Config {
	return Config{
		System: sys, Ranks: p, Workers: workers(p),
		Timesteps: o.Timesteps, BlockBytes: block, Model: o.Model,
	}
}

// largest is the largest weak-scaling point, which the headline, the
// metadata counts and the ablations read.
func largest(o Options, sys System) Config {
	return point(o, sys, o.WeakProcs[len(o.WeakProcs)-1], o.BlockBytes)
}

func simStep(r *Result) float64       { return r.SimStepMean }
func commMean(r *Result) float64      { return r.CommMean }
func analyticsTime(r *Result) float64 { return r.AnalyticsTime }

// curve is one series of a table view: a system and the value read
// from each of its runs.
type curve struct {
	label, unit string
	sys         System
	value       func(*Result) float64
}

// tableView declares a table whose cell (curve, x) is the mean ± std of
// the curve's value over the seeded runs of at(curve's system, x).
func tableView(o Options, seed func(run int) int64, t Table, at func(sys System, x int) Config, curves ...curve) view {
	runs := func(c curve, x int) []Config { return seeded(o, at(c.sys, x), seed) }
	var cfgs []Config
	for _, c := range curves {
		for x := range t.XTicks {
			cfgs = append(cfgs, runs(c, x)...)
		}
	}
	return view{configs: cfgs, render: func(res map[Config]*Result) Output {
		tab := t
		for _, c := range curves {
			s := Series{Label: c.label, Unit: c.unit}
			for x := range t.XTicks {
				m, sd := meanStd(values(res, runs(c, x), c.value))
				s.Mean, s.Std = append(s.Mean, m), append(s.Std, sd)
			}
			tab.Series = append(tab.Series, s)
		}
		return &tab
	}}
}

// couplingCurves are the simulation-side curves of Figs 2a, 3a and 4a.
func couplingCurves(v func(*Result) float64) []curve {
	return []curve{
		{"Post Hoc Write", "", PostHocNewIPCA, v},
		{"DEISA1 Communication", "", DEISA1, v},
		{"DEISA3 Communication", "", DEISA3, v},
	}
}

// analyticsCurves are the analytics-side curves of Figs 2b, 3b and 4b.
func analyticsCurves(v func(*Result) float64) []curve {
	return []curve{
		{"Post hoc IPCA", "", PostHocOldIPCA, v},
		{"Post hoc New IPCA", "", PostHocNewIPCA, v},
		{"DEISA1 IPCA", "", DEISA1, v},
		{"DEISA3 New IPCA", "", DEISA3, v},
	}
}

// scalingView declares a Fig 2–4 table over the weak-scaling points
// (fixed block per process) or the strong-scaling ones (fixed problem
// size). The ticks count processes, or workers when XLabel is "Workers".
func scalingView(o Options, strong bool, t Table, curves ...curve) view {
	procs, block := o.WeakProcs, func(int) int64 { return o.BlockBytes }
	if strong {
		procs, block = o.StrongProcs, func(p int) int64 { return o.StrongTotalBytes / int64(p) }
	}
	for _, p := range procs {
		if t.XLabel == "Workers" {
			p = workers(p)
		}
		t.XTicks = append(t.XTicks, strconv.Itoa(p))
	}
	return tableView(o, figureSeed, t, func(sys System, x int) Config {
		return point(o, sys, procs[x], block(procs[x]))
	}, curves...)
}

// Fig5Run is one panel of Figure 5: per-rank mean and std of the
// communication time for one system and one run (allocation).
type Fig5Run struct {
	System System
	Run    int
	Mean   []float64 // per rank
	Std    []float64 // per rank
}

// Fig5Panels is Figure 5 (Experiment II): per-rank communication-time
// variability for DEISA1/2/3 across independent runs.
type Fig5Panels []Fig5Run

func fig5(o Options) view {
	var cfgs []Config
	for _, sys := range []System{DEISA1, DEISA2, DEISA3} {
		cfgs = append(cfgs, seeded(o, point(o, sys, o.Fig5Procs, o.Fig5BlockBytes),
			func(run int) int64 { return int64(run*271 + 13) })...)
	}
	return view{configs: cfgs, render: func(res map[Config]*Result) Output {
		panels := make(Fig5Panels, len(cfgs))
		for i, c := range cfgs {
			r := res[c]
			panels[i] = Fig5Run{System: c.System, Run: i % o.Runs, Mean: r.PerRankCommMean, Std: r.PerRankCommStd}
		}
		return panels
	}}
}

// Format renders the Figure 5 panels as a compact summary: per-panel
// mean of per-rank means, spread across ranks, and the average per-rank
// std (the paper's "red band").
func (p Fig5Panels) Format() string {
	var b strings.Builder
	b.WriteString("Fig 5 — per-rank communication time (s): mean over ranks [min..max], avg per-rank std\n")
	for _, r := range p {
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

// headline reads the ratios off the Fig 2 runs at the largest
// weak-scaling point.
func headline(o Options) view {
	runs := func(sys System) []Config { return seeded(o, largest(o, sys), figureSeed) }
	var cfgs []Config
	for _, sys := range []System{PostHocOldIPCA, PostHocNewIPCA, DEISA1, DEISA3} {
		cfgs = append(cfgs, runs(sys)...)
	}
	return view{configs: cfgs, render: func(res map[Config]*Result) Output {
		ratio := func(num, den System, f func(*Result) float64) float64 {
			a, _ := meanStd(values(res, runs(num), f))
			b, _ := meanStd(values(res, runs(den), f))
			return a / b
		}
		return &Headline{
			SimSpeedupVsDeisa1:       ratio(DEISA1, DEISA3, commMean),
			AnalyticsSpeedupVsDeisa1: ratio(DEISA1, DEISA3, analyticsTime),
			CostRatioVsPostHocWrite:  ratio(PostHocNewIPCA, DEISA3, (*Result).SimCommCostCoreHours),
			AnalyticsCostVsPostHoc:   ratio(PostHocOldIPCA, DEISA3, (*Result).AnalyticsCostCoreHours),
		}
	}}
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

// metadataCounts reads the dask/* registry counters of the first
// DEISA1 and DEISA3 runs at the largest weak-scaling point.
func metadataCounts(o Options) view {
	d1, d3 := largest(o, DEISA1), largest(o, DEISA3)
	d1.Seed, d3.Seed = figureSeed(0), figureSeed(0)
	return view{configs: []Config{d1, d3}, render: func(res map[Config]*Result) Output {
		m1, m3 := res[d1].Metrics, res[d3].Metrics
		return &MetadataCounts{
			Timesteps:        o.Timesteps,
			Ranks:            d1.Ranks,
			DEISA1Queue:      m1.Counter("dask/queue_ops"),
			DEISA1Meta:       m1.Counter("dask/metadata_msgs"),
			DEISA1Heartbeats: m1.Counter("dask/heartbeats"),
			DEISA3Variable:   m3.Counter("dask/variable_ops"),
			DEISA3External:   m3.Counter("dask/external_created"),
		}
	}}
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
