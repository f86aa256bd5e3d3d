package dask

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"deisago/internal/taskgraph"
)

// Scheduler scalability benchmarks: the paper's headline is that the whole
// multi-timestep analytics graph is submitted once ahead of time, so the
// scheduler ingests and drives O(T·R) tasks in a single burst (T
// timesteps × R ranks). Böhm et al. (PAPERS.md) show per-task scheduler
// overhead is what caps Dask throughput at exactly this regime, so these
// benchmarks track ns/task and allocs/task for the two hot paths:
//
//   - BenchmarkSchedSubmit: graph ingest (submitGraph) alone — the
//     registration, validation, and dependency-wiring cost per task.
//   - BenchmarkSchedDrive: a full ahead-of-time workflow — external
//     create, submit, per-block external scatter, and the transition
//     cascade to completion.
//
// The whole-run benchmark (bench/, BENCHMARK.json) gates the end-to-end
// effect of these paths; these isolate them.

// schedBenchWorkers is the cluster size used by the scheduler benchmarks
// (fixed so ns/task figures are comparable across runs).
const schedBenchWorkers = 8

// schedBenchGraph builds the paper-shaped analytics graph for T timesteps
// of R ranks: per step, R leaf tasks each consuming one external block, a
// per-step reduction over the R leaves, and a chained accumulator linking
// the steps. Total graph size: T·R + 2·T tasks over T·R external keys.
func schedBenchGraph(T, R int) (g *taskgraph.Graph, externals []taskgraph.Key, final taskgraph.Key) {
	g = taskgraph.New()
	nop := func(in []any) (any, error) { return 1.0, nil }
	externals = make([]taskgraph.Key, 0, T*R)
	var prev taskgraph.Key
	for t := 0; t < T; t++ {
		stepDeps := make([]taskgraph.Key, 0, R)
		for r := 0; r < R; r++ {
			x := taskgraph.Key(fmt.Sprintf("deisa-f-%d-%d", t, r))
			externals = append(externals, x)
			p := taskgraph.Key(fmt.Sprintf("p-%d-%d", t, r))
			g.AddFn(p, []taskgraph.Key{x}, nop, 1e-6)
			stepDeps = append(stepDeps, p)
		}
		s := taskgraph.Key(fmt.Sprintf("sum-%d", t))
		g.AddFn(s, stepDeps, nop, 1e-6)
		a := taskgraph.Key(fmt.Sprintf("acc-%d", t))
		deps := []taskgraph.Key{s}
		if t > 0 {
			deps = append(deps, prev)
		}
		g.AddFn(a, deps, nop, 1e-6)
		prev = a
	}
	return g, externals, prev
}

// schedBenchSizes is the T×R sweep shared by both benchmarks.
var schedBenchSizes = []struct{ T, R int }{
	{8, 8}, {8, 32}, {8, 64},
	{32, 8}, {32, 32}, {32, 64},
	{64, 8}, {64, 32}, {64, 64},
}

// reportPerTask converts the timed section into ns/task and allocs/task
// custom metrics (nTasks scheduler tasks per iteration).
func reportPerTask(b *testing.B, nTasks int, mallocs uint64) {
	b.Helper()
	denom := float64(b.N) * float64(nTasks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/denom, "ns/task")
	b.ReportMetric(float64(mallocs)/denom, "allocs/task")
}

// BenchmarkSchedSubmit measures pure graph ingest: T·R+2·T tasks arriving
// at the scheduler in one submitGraph burst, with every leaf blocked on a
// pre-created external key (nothing runs; this is registration + wiring).
func BenchmarkSchedSubmit(b *testing.B) {
	for _, size := range schedBenchSizes {
		b.Run(fmt.Sprintf("T%d_R%d", size.T, size.R), func(b *testing.B) {
			nTasks := size.T*size.R + 2*size.T
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, _ := testClusterQuick(schedBenchWorkers)
				g, externals, _ := schedBenchGraph(size.T, size.R)
				if _, err := c.sched.createExternal(externals, 0); err != nil {
					b.Fatal(err)
				}
				g.Keys() // graph construction (incl. key sort) is not under test
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if _, err := c.sched.submitGraph(g, 0); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				c.Close()
				b.StartTimer()
			}
			b.StopTimer()
			reportPerTask(b, nTasks, mallocs)
		})
	}
}

// BenchmarkSchedDrive measures the full ahead-of-time protocol: external
// future creation, one graph submission, T·R external scatters (the
// bridge side), and the scheduler transition cascade driving every task
// to memory.
func BenchmarkSchedDrive(b *testing.B) {
	for _, size := range schedBenchSizes {
		b.Run(fmt.Sprintf("T%d_R%d", size.T, size.R), func(b *testing.B) {
			nTasks := size.T*size.R + 2*size.T
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, cl := testClusterQuick(schedBenchWorkers)
				bridge := c.NewClient("bridge", 1, math.Inf(1))
				g, externals, final := schedBenchGraph(size.T, size.R)
				g.Keys()
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				if _, err := cl.ExternalFutures(externals); err != nil {
					b.Fatal(err)
				}
				futs, err := cl.Submit(g, []taskgraph.Key{final})
				if err != nil {
					b.Fatal(err)
				}
				for j, x := range externals {
					if err := bridge.Scatter([]ScatterItem{{Key: x, Value: 1.0}}, true, j%schedBenchWorkers); err != nil {
						b.Fatal(err)
					}
				}
				if err := cl.Wait(futs); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				c.Close()
				b.StartTimer()
			}
			b.StopTimer()
			reportPerTask(b, nTasks, mallocs)
		})
	}
}
