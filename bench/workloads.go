package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"deisago/internal/harness"
	"deisago/internal/metrics"
	"deisago/internal/ml"
	"deisago/internal/ndarray"
	"deisago/internal/sim"
)

// seedWindow is how many consecutive seeds one invocation cycles through:
// run i uses seed+i%seedWindow, so every run length covers the same
// allocations and link-jitter streams.
const seedWindow = 16

// job is one pipeline of a workload: a system of the quad, or a tenant.
type job struct {
	name   string // tenant namespace; empty outside tenants-8
	sys    harness.System
	ranks  int
	steps  int
	block  int64 // modelled bytes per rank per timestep
	weight float64
	// firstRank is where the job's ranks start among its platform's rank
	// nodes: tenants sit side by side, every other job has a platform of
	// its own.
	firstRank int
}

// workload is one whole-run input class. Its jobs run back to back, each
// on a platform of its own (harness.Run), or, with shared set, together
// on one platform (harness.RunMultiJob).
type workload struct {
	name, why    string
	workers      int
	realX, realY int
	jobs         []job
	shared       bool

	// refs[i] is the fingerprint jobs[i] must produce, computed without
	// the program under test (see reference). wantRegistered is the
	// closed form of dask/tasks_registered over all jobs.
	refs           []string
	wantRegistered int64
}

func pipe(name, why string, ranks, workers, steps int, block int64, x, y int) *workload {
	return &workload{name: name, why: why, workers: workers, realX: x, realY: y,
		jobs: []job{{sys: harness.DEISA3, ranks: ranks, steps: steps, block: block}}}
}

// workloads returns the five workloads, in reporting order.
func workloads() []*workload {
	quad := &workload{
		name: "headline-quad",
		why: "the paper's largest weak-scaling point on all four systems: many small submissions, " +
			"queues, heartbeats (DEISA1) and PFS traffic (post hoc) beside the one-big-graph path",
		workers: 32, realX: 16, realY: 8,
	}
	for _, s := range []harness.System{harness.PostHocOldIPCA, harness.PostHocNewIPCA, harness.DEISA1, harness.DEISA3} {
		quad.jobs = append(quad.jobs, job{sys: s, ranks: 64, steps: 10, block: 128 << 20})
	}
	tenants := &workload{
		name:    "tenants-8",
		why:     "eight weighted tenants on one platform: the only path through fair queuing, namespacing and admission",
		workers: 8, realX: 16, realY: 8, shared: true,
	}
	for i, first := 0, 0; i < 8; i++ {
		ranks := 2 + 2*(i%3)
		tenants.jobs = append(tenants.jobs, job{name: fmt.Sprintf("t%d", i), sys: harness.DEISA3,
			ranks: ranks, steps: 6, block: 4 << 20, weight: float64(1 + i%3), firstRank: first})
		first += ranks
	}
	return []*workload{
		pipe("pipe-small", "the unit every sweep fans out: per-run fixed cost (platform build, end-of-run sampling) dominates",
			4, 2, 3, 8<<20, 16, 8),
		pipe("pipe-floor", "4131 tasks with near-zero bodies: the non-compute floor per task (fabric, bridge, scheduler)",
			64, 32, 32, 16<<20, 4, 2),
		pipe("pipe-kernel", "large real blocks: the SVD dominates, so runtime and platform changes should not show",
			4, 2, 6, 16<<20, 64, 32),
		quad,
		tenants,
	}
}

// input is what the program under test receives for one run.
type input struct {
	cfgs  []harness.Config       // one per job
	multi harness.MultiJobConfig // shared workloads
}

// inputs generates the seedWindow inputs of one invocation from the seed.
func (w *workload) inputs(seed int64, observers bool) []input {
	ins := make([]input, seedWindow)
	for i := range ins {
		s := seed + int64(i)
		if w.shared {
			m := harness.MultiJobConfig{Workers: w.workers, Seed: s,
				RealLocalX: w.realX, RealLocalY: w.realY, EnableAudit: observers}
			for _, j := range w.jobs {
				m.Jobs = append(m.Jobs, harness.JobSpec{Name: j.name, Weight: j.weight,
					Ranks: j.ranks, Timesteps: j.steps, BlockBytes: j.block})
			}
			ins[i].multi = m
			continue
		}
		for _, j := range w.jobs {
			ins[i].cfgs = append(ins[i].cfgs, harness.Config{System: j.sys, Ranks: j.ranks,
				Workers: w.workers, Timesteps: j.steps, BlockBytes: j.block, Seed: s,
				RealLocalX: w.realX, RealLocalY: w.realY,
				EnableTrace: observers, EnableAudit: observers})
		}
	}
	return ins
}

// outcome is what one run produced.
type outcome struct {
	prints     []string // analytics fingerprint per job
	registered int64    // dask/tasks_registered
	tasks      int64    // Σ worker/tasks_executed
	snaps      []*metrics.Snapshot

	// Simulated (virtual-time) outputs; zero where the workload has none.
	simPerIter, analytics, makespan, coupling float64
	ratios                                    [4]float64
	jain                                      float64
}

// run executes one input end to end.
func (w *workload) run(in input) (*outcome, error) {
	o := &outcome{}
	count := func(s *metrics.Snapshot) {
		o.snaps = append(o.snaps, s)
		o.registered += s.Counter("dask/tasks_registered")
		o.tasks += s.SumCounters("worker/tasks_executed")
	}
	if w.shared {
		res, err := harness.RunMultiJob(in.multi)
		if err != nil {
			return nil, err
		}
		count(res.Metrics)
		var perIter, analytics []float64
		for i, j := range res.Jobs {
			o.prints = append(o.prints, fingerprint(j.Components, j.SingularValues, j.ExplainedVariance))
			perIter = append(perIter, j.SimMakespan/float64(w.jobs[i].steps))
			analytics = append(analytics, j.AnalyticsTime)
		}
		o.simPerIter, o.analytics = median(perIter), median(analytics)
		o.makespan, o.jain = res.Makespan, res.Jain
		return o, nil
	}
	by := map[harness.System]*harness.Result{}
	for _, cfg := range in.cfgs {
		res, err := harness.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.System, err)
		}
		count(res.Metrics)
		by[cfg.System] = res
		o.prints = append(o.prints, fingerprint(res.Components, res.SingularValues, res.ExplainedVariance))
		if cfg.System.InTransit() {
			o.makespan += math.Max(res.SimMakespan, res.AnalyticsTime)
		} else {
			o.makespan += res.SimMakespan + res.AnalyticsTime
		}
	}
	d3 := by[harness.DEISA3]
	o.simPerIter = d3.SimMakespan / float64(d3.Config.Timesteps)
	o.analytics, o.coupling = d3.AnalyticsTime, d3.CommMean
	if d1, old, nw := by[harness.DEISA1], by[harness.PostHocOldIPCA], by[harness.PostHocNewIPCA]; d1 != nil && old != nil && nw != nil {
		// The four ratios of harness.ComputeHeadline, on one seed.
		o.ratios = [4]float64{
			d1.CommMean / d3.CommMean,
			d1.AnalyticsTime / d3.AnalyticsTime,
			nw.SimCommCostCoreHours() / d3.SimCommCostCoreHours(),
			old.AnalyticsCostCoreHours() / d3.AnalyticsCostCoreHours(),
		}
	}
	return o, nil
}

// check reports why the run's outputs are wrong, or "".
func (w *workload) check(o *outcome) string {
	for i, p := range o.prints {
		if p != w.refs[i] {
			return fmt.Sprintf("job %d fingerprint %.12s, reference %.12s", i, p, w.refs[i])
		}
	}
	if o.registered != w.wantRegistered {
		return fmt.Sprintf("dask/tasks_registered = %d, closed form %d", o.registered, w.wantRegistered)
	}
	return ""
}

// registeredTasks is the closed form of dask/tasks_registered for one job:
// per step and block, new-IPCA systems register a fold and a sketch (and a
// read post hoc); the old IPCA folds twice and sketches once (reading
// twice post hoc) and adds a statistics task per step; every system adds
// one fit per step and three extraction tasks.
func registeredTasks(j job) int64 {
	perBlock, perStep := 2, 1
	if !j.sys.NewIPCA() {
		perBlock, perStep = 3, 2 // perStep is also the passes over the data
	}
	if !j.sys.InTransit() {
		perBlock += perStep // one read per pass
	}
	return int64(j.steps*(perBlock*j.ranks+perStep) + 3)
}

// prepare computes the workload's references.
func (w *workload) prepare() error {
	w.refs, w.wantRegistered = nil, 0
	byShape := map[[2]int]string{}
	for _, j := range w.jobs {
		shape := [2]int{j.ranks, j.steps}
		if _, ok := byShape[shape]; !ok {
			est, err := reference(batches(w, j))
			if err != nil {
				return err
			}
			byShape[shape] = fingerprint(est.Components, est.SingularValues, est.ExplainedVariance)
		}
		w.refs = append(w.refs, byShape[shape])
		w.wantRegistered += registeredTasks(j)
	}
	return nil
}

// heatConfig is the Heat2D problem a job solves (the harness's
// decomposition: one column of ranks along Y).
func heatConfig(w *workload, j job) sim.Config {
	return sim.Config{GlobalX: w.realX, GlobalY: w.realY * j.ranks, ProcX: 1, ProcY: j.ranks, Alpha: 0.2}
}

// batches returns a job's per-step (Y × X) samples×features matrices from
// the serial Heat2D solver — what the ranks' blocks of one step fold and
// concatenate to.
func batches(w *workload, j job) []*ndarray.Array {
	hc := heatConfig(w, j)
	out := make([]*ndarray.Array, j.steps)
	for t := range out {
		out[t] = sim.RunSerial(hc, sim.HotSpotInitial(hc), t+1).Transpose(1, 0).Copy()
	}
	return out
}

// reference computes a job's analytics without the coupled workflow: the
// batches go straight into one incremental PCA. Every system must
// reproduce its bits.
func reference(batches []*ndarray.Array) (*ml.IncrementalPCA, error) {
	est := ml.NewIncrementalPCA(harness.DefaultModel().NComponents)
	for _, b := range batches {
		if err := est.PartialFit(b); err != nil {
			return nil, fmt.Errorf("reference fit: %w", err)
		}
	}
	return est, nil
}

// fingerprint digests the analytics values bit for bit.
func fingerprint(components *ndarray.Array, singular, explained []float64) string {
	h := sha256.New()
	var buf [8]byte
	write := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if components != nil {
		write(components.Copy().Data())
	}
	write(singular)
	write(explained)
	return hex.EncodeToString(h.Sum(nil))
}

// graphJobs returns the jobs whose analytics is the one ahead-of-time
// fold→sketch→fit graph (the DEISA3 members); the graph probes replay it.
func (w *workload) graphJobs() []job {
	var out []job
	for _, j := range w.jobs {
		if j.sys == harness.DEISA3 {
			out = append(out, j)
		}
	}
	return out
}

// opsPerRun are the per-run operation counts that no counter carries,
// from the pipeline's closed forms; est_share multiplies them by probe
// costs.
type opsPerRun struct {
	platforms, rankSteps, fits, folds, chunkWrites, chunkReads float64
}

func (w *workload) ops() opsPerRun {
	var n opsPerRun
	n.platforms = float64(len(w.jobs))
	if w.shared {
		n.platforms = 1
	}
	for _, j := range w.jobs {
		blocks := float64(j.ranks * j.steps)
		passes := 1.0
		if !j.sys.NewIPCA() {
			passes = 2
		}
		n.rankSteps += blocks
		n.fits += float64(j.steps)
		n.folds += passes * blocks
		if !j.sys.InTransit() {
			n.chunkWrites += blocks
			n.chunkReads += passes * blocks
		}
	}
	return n
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// mean returns the arithmetic mean of v (0 on no samples).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile returns the nearest-rank p-quantile of v (0 on no samples).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

// find returns the named workload.
func find(all []*workload, name string) (*workload, error) {
	var names []string
	for _, w := range all {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
