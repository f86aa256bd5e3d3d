package netsim

import (
	"sync/atomic"
	"testing"

	"deisago/internal/metrics"
)

// benchConfig is a fabric where every (2p, 2p+1) node pair crosses the
// spine through its own pair of leaves (NodesPerSwitch 1), so concurrent
// senders on distinct pairs share no modelled link: any cross-pair
// slowdown is bookkeeping contention, which is exactly what the
// parallel-senders benchmark exists to measure. Jitter is on so the
// hash path is included in the per-transfer cost.
func benchConfig() Config {
	return Config{
		NodesPerSwitch:  1,
		LinkBandwidth:   12.5e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 3e-5,
		JitterFrac:      0.08,
		Seed:            1,
	}
}

// benchPairs bounds the distinct node pairs handed to parallel senders.
const benchPairs = 128

// TestFabricTransferZeroAlloc pins the warm instrumented transfer path
// (fabric totals, per-link byte counters, queue-wait histograms)
// allocation free.
// Every transfer departs at time 0 and the uplinks are unpruned, so each
// cross-spine booking queues flush behind the previous one on all four
// links: the links' booking tables stay one interval long and any
// allocation is the transfer path's own.
func TestFabricTransferZeroAlloc(t *testing.T) {
	cfg := benchConfig()
	cfg.PruneFactor = 1
	f := New(cfg, 2)
	f.UseMetrics(metrics.NewRegistry())
	f.Transfer(0, 1, 1<<20, 0) // resolve the instruments
	if avg := testing.AllocsPerRun(200, func() { f.Transfer(0, 1, 1<<20, 0) }); avg != 0 {
		t.Fatalf("instrumented transfer allocates %v times, want 0", avg)
	}
}

// BenchmarkFabricTransfer measures the full instrumented 4-hop transfer
// path. The serial and parallel variants do identical per-op work on the
// same topology; their ratio is the fabric's contention scalability.
// Each sender departs its next transfer at the previous arrival, so its
// links stay uncongested and per-op cost does not drift with b.N.
func BenchmarkFabricTransfer(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		f := New(benchConfig(), 2*benchPairs)
		f.UseMetrics(metrics.NewRegistry())
		b.ReportAllocs()
		b.ResetTimer()
		at := 0.0
		for i := 0; i < b.N; i++ {
			at = f.Transfer(0, 1, 1<<20, at)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		f := New(benchConfig(), 2*benchPairs)
		f.UseMetrics(metrics.NewRegistry())
		var next atomic.Int32
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			p := int(next.Add(1)-1) % benchPairs
			from, to := NodeID(2*p), NodeID(2*p+1)
			at := 0.0
			for pb.Next() {
				at = f.Transfer(from, to, 1<<20, at)
			}
		})
	})
}
