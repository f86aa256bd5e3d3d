package harness

import (
	"testing"
)

// benchOptions is the Fig-2a-style sweep the pipeline benchmarks run: the
// quick weak-scaling points, enough work to expose the sweep-level
// parallelism without taking minutes per iteration.
func benchOptions(parallel int) Options {
	o := QuickOptions()
	o.Runs = 2
	o.Timesteps = 3
	o.WeakProcs = []int{4, 8}
	o.BlockBytes = 8 * MiB
	o.Parallel = parallel
	return o
}

// BenchmarkPipelineSweep measures the wall-clock of a Fig-2a weak-scaling
// sweep, serial vs pooled. The parallel/serial ns ratio is the sweep
// speedup (it scales with the core count: on one core the ratio is ~1).
func BenchmarkPipelineSweep(b *testing.B) {
	for _, bc := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			o := benchOptions(bc.parallel)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := NewSweep(o, "2a")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineRun measures one end-to-end DEISA3 run — the unit of
// work every sweep fans out — so data-plane regressions (pooling, grid
// caching, scatter staging) show up as ns/op and allocs/op growth here.
func BenchmarkPipelineRun(b *testing.B) {
	for _, sys := range []System{DEISA3, PostHocNewIPCA} {
		b.Run(sys.String(), func(b *testing.B) {
			cfg := Config{
				System:     sys,
				Ranks:      4,
				Workers:    2,
				Timesteps:  3,
				BlockBytes: 8 * MiB,
				Seed:       1,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
