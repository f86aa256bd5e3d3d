package dask

import (
	"fmt"
	"runtime"
	"testing"

	"deisago/internal/taskgraph"
)

// BenchmarkSpillPath tracks the cost of the worker memory-governance
// data path: scatter nBlocks 128-byte blocks to one governed worker,
// then gather them all back.
//
//   - zero_spill: the limit holds every block, so this is the governed
//     fast path — LRU stamping and admission checks but no PFS traffic.
//     Governance must not add allocations or measurable time to runs
//     that never spill.
//   - spill_heavy: the limit holds only 4 blocks, so nearly every
//     scatter evicts a victim to the PFS and nearly every gather
//     unspills one. This bounds the spill machinery itself
//     (ledger moves, virtual-time write/read charging), not the
//     modelled PFS latency, which is virtual.
//
// The per-task denominator is one scatter plus one gather per block.
func BenchmarkSpillPath(b *testing.B) {
	const nBlocks = 128
	const blockLen = 16 // 128-byte blocks
	cases := []struct {
		name  string
		limit int64
	}{
		{"zero_spill", 1 << 20},
		{"spill_heavy", 512},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			nTasks := nBlocks * 2
			val := make([]float64, blockLen)
			keys := make([]taskgraph.Key, nBlocks)
			for j := range keys {
				keys[j] = taskgraph.Key(fmt.Sprintf("blk%d", j))
			}
			var ms runtime.MemStats
			var mallocs uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, cl := testClusterMem(1, cse.limit)
				item := make([]ScatterItem, 1)
				fut := make([]*Future, 1)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				for _, k := range keys {
					item[0] = ScatterItem{Key: k, Value: val}
					if err := cl.Scatter(item, false, 0); err != nil {
						b.Fatal(err)
					}
				}
				for _, k := range keys {
					fut[0] = &Future{Key: k, client: cl}
					if _, err := cl.Gather(fut); err != nil {
						b.Fatal(err)
					}
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
