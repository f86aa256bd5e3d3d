package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

const (
	warmups = 3 // runs before anything is timed
	rounds  = 5 // a loop's budget is split into rounds; their spread is harness.round_spread_frac
)

// options are the settings of one invocation.
type options struct {
	seed    int64
	seconds float64 // length of one timed loop, and of one traced pass
	runs    int     // >0: every loop makes exactly this many runs and every probe one batch (tests)
}

// section is one workload's end-to-end or per-layer result.
type section struct {
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FirstFailure string             `json:"first_failure,omitempty"`
	Tail         string             `json:"tail_percentile,omitempty"`
	Metrics      map[string]float64 `json:"metrics"`
}

// setup does everything a loop needs before its first timed run: it
// generates the inputs, computes the references and warms the program up.
func (w *workload) setup(opt options, observers bool) ([]input, error) {
	ins := w.inputs(opt.seed, observers)
	if err := w.prepare(); err != nil {
		return nil, err
	}
	for i := 0; i < warmups; i++ {
		if _, err := w.run(ins[i]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ins, nil
}

// loopStats is what one closed loop (one client, next run after the
// previous returns) measured.
type loopStats struct {
	runs, failed int
	firstFailure string
	wallMs       []float64 // per run, in order
	roundP50     []float64 // per round: median run
	roundRate    []float64 // per round: tasks completed ÷ wall seconds, checks included
	mallocs      uint64
	allocBytes   uint64
	gcCycles     uint32
	heapSys      uint64

	// Simulated outputs, one value per correct run. They are reported as
	// means: schedules fall into a few discrete modes, which makes a
	// median jump where a mean only drifts.
	simPerIter, analytics, makespan, coupling, jain []float64
	ratios                                          [4][]float64
}

// loop runs the workload back to back for the budget (or opt.runs runs),
// with nothing but time.Now around each run. observe, when non-nil, sees
// every correct outcome between runs.
func (w *workload) loop(ins []input, opt options, budget time.Duration, observe func(*outcome)) *loopStats {
	st := &loopStats{}
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		// A round ends after its share of the budget or, with a fixed
		// count, of the runs.
		until := opt.runs * (r + 1) / rounds
		first, tasks := st.runs, int64(0)
		runtime.GC() // every round starts from a collected heap
		runtime.ReadMemStats(&before)
		start := time.Now()
		more := func() bool {
			if opt.runs > 0 {
				return st.runs < until
			}
			return st.runs == first || time.Since(start) < budget/rounds
		}
		for more() {
			in := ins[st.runs%len(ins)]
			t0 := time.Now()
			out, err := w.run(in)
			wall := time.Since(t0)
			st.runs++
			st.wallMs = append(st.wallMs, float64(wall.Nanoseconds())/1e6)
			msg := ""
			if err != nil {
				msg = err.Error()
			} else {
				msg = w.check(out)
			}
			if msg != "" {
				if st.failed++; st.firstFailure == "" {
					st.firstFailure = fmt.Sprintf("run %d: %s", st.runs-1, msg)
				}
				continue
			}
			tasks += out.tasks
			st.record(out)
			if observe != nil {
				observe(out)
			}
		}
		seconds := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		st.mallocs += after.Mallocs - before.Mallocs
		st.allocBytes += after.TotalAlloc - before.TotalAlloc
		st.gcCycles += after.NumGC - before.NumGC
		if st.runs > first {
			st.roundP50 = append(st.roundP50, median(st.wallMs[first:]))
			st.roundRate = append(st.roundRate, float64(tasks)/seconds)
		}
	}
	st.heapSys = after.HeapSys
	return st
}

func (st *loopStats) record(o *outcome) {
	st.simPerIter = append(st.simPerIter, o.simPerIter)
	st.analytics = append(st.analytics, o.analytics)
	st.makespan = append(st.makespan, o.makespan)
	st.coupling = append(st.coupling, o.coupling)
	st.jain = append(st.jain, o.jain)
	for i, r := range o.ratios {
		st.ratios[i] = append(st.ratios[i], r)
	}
}

// section starts a result section with the loop's failure counts and the
// workload-specific end-to-end metrics (zero where the workload has no
// such output).
func (st *loopStats) section() *section {
	return &section{Attempted: st.runs, Failed: st.failed, FirstFailure: st.firstFailure,
		Metrics: map[string]float64{
			"failed_frac":                              float64(st.failed) / float64(st.runs),
			"virt_coupling_s_per_iter":                 mean(st.coupling),
			"ratio_sim_deisa1_over_deisa3":             mean(st.ratios[0]),
			"ratio_analytics_deisa1_over_deisa3":       mean(st.ratios[1]),
			"ratio_cost_posthoc_over_deisa3":           mean(st.ratios[2]),
			"ratio_analytics_cost_posthoc_over_deisa3": mean(st.ratios[3]),
			"jain_fairness":                            mean(st.jain),
		}}
}

// tail returns the highest of p99/p95/p90/p80 with at least ten samples
// beyond it, and its label; with fewer than fifty samples, the maximum.
func (st *loopStats) tail() (float64, string) {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.80} {
		if float64(len(st.wallMs))*(1-p) >= 10 {
			return percentile(st.wallMs, p), fmt.Sprintf("p%.0f", p*100)
		}
	}
	return percentile(st.wallMs, 1), "max"
}

// roundSpread is (max−min)/median of the rounds' medians.
func (st *loopStats) roundSpread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range st.roundP50 {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return (hi - lo) / median(st.roundP50)
}

// measureEndToEnd times whole runs with every observer off.
func measureEndToEnd(w *workload, opt options) (*section, error) {
	// Set-up is repeated and its median reported, so that one slow first
	// touch does not decide setup_s: at least five times, and for cheap
	// set-ups until a second has passed.
	var setups []float64
	var ins []input
	for start := time.Now(); ; {
		t0 := time.Now()
		var err error
		if ins, err = w.setup(opt, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if n := len(setups); opt.runs > 0 || n >= 5 && (time.Since(start) >= time.Second || n >= 200) {
			break
		}
	}
	st := w.loop(ins, opt, time.Duration(opt.seconds*float64(time.Second)), nil)
	sec := st.section()
	runs := float64(st.runs)
	for name, v := range map[string]float64{
		"setup_s":             median(setups),
		"run_wall_p50_ms":     median(st.wallMs),
		"tasks_per_s":         median(st.roundRate),
		"allocs_per_run":      float64(st.mallocs) / runs,
		"alloc_kib_per_run":   float64(st.allocBytes) / 1024 / runs,
		"virt_sim_s_per_iter": mean(st.simPerIter),
		"virt_analytics_s":    mean(st.analytics),
		"virt_makespan_s":     mean(st.makespan),
	} {
		sec.Metrics[name] = v
	}
	return sec, nil
}
