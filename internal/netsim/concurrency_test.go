package netsim

import (
	"bytes"
	"sync"
	"testing"

	"deisago/internal/metrics"
	"deisago/internal/vtime"
)

// Both tests reuse benchConfig: node pairs (2p, 2p+1) sit on private
// leaves so concurrent chains share no modelled link, and jitter is on to
// cover the stateless hash path under concurrency.

// TestResetAfterConcurrentTransfers drives the fabric from many
// goroutines — with a fault hook dropping part of the traffic — checks
// the registry totals, and then checks that Reset returns the fabric to
// its initial state: hook gone, links idle at time zero.
func TestResetAfterConcurrentTransfers(t *testing.T) {
	const pairs, perPair = 8, 50
	f := New(benchConfig(), 2*pairs)
	reg := metrics.NewRegistry()
	f.UseMetrics(reg)
	f.SetFaultHook(func(from, to NodeID, size int64, depart vtime.Time) FaultVerdict {
		// Deterministic partial loss: drop transfers from even senders.
		return FaultVerdict{Drop: from%4 == 0}
	})

	var wg sync.WaitGroup
	for p := 0; p < pairs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			from, to := NodeID(2*p), NodeID(2*p+1)
			at := vtime.Time(0)
			for i := 0; i < perPair; i++ {
				at, _ = f.TransferChecked(from, to, 1<<16, at)
			}
		}(p)
	}
	wg.Wait()

	n, b, d := fabricTotals(reg)
	if n != pairs*perPair || b != pairs*perPair*(1<<16) {
		t.Fatalf("before reset: transfers=%d bytes=%d, want %d/%d",
			n, b, pairs*perPair, pairs*perPair*(1<<16))
	}
	if d != (pairs/2)*perPair {
		t.Fatalf("before reset: dropped=%d, want %d", d, (pairs/2)*perPair)
	}

	f.Reset()
	fresh := metrics.NewRegistry()
	f.UseMetrics(fresh)

	// The drop hook must be gone: node 0 was in the dropped class.
	if _, ok := f.TransferChecked(0, 1, 1<<16, 0); !ok {
		t.Fatalf("after reset: fault hook survived Reset")
	}
	if _, _, d := fabricTotals(fresh); d != 0 {
		t.Fatalf("after reset: delivery incremented dropped: %d", d)
	}
	// Links are idle again: a fresh transfer from t=0 matches the same
	// transfer on a brand-new fabric (same config, same seed → same
	// jitter, no queueing).
	pristine := New(benchConfig(), 2*pairs)
	got := f.Transfer(2, 3, 1<<20, 0)
	want := pristine.Transfer(2, 3, 1<<20, 0)
	if got != want {
		t.Fatalf("after reset: arrival %v, want pristine-fabric arrival %v", got, want)
	}
}

// TestConcurrentTransfersDeterministic runs the same per-pair transfer
// chains serially and from parallel goroutines and requires bit-identical
// results: every arrival time, the fabric totals, and the canonical
// metric snapshot. This is the contract the parallel harness leans on —
// how accounting is synchronized must not change any observable value,
// only its cost.
func TestConcurrentTransfersDeterministic(t *testing.T) {
	const pairs, perPair = 8, 40
	run := func(parallel bool) ([]vtime.Time, int64, int64, []byte) {
		f := New(benchConfig(), 2*pairs)
		reg := metrics.NewRegistry()
		f.UseMetrics(reg)
		arrivals := make([]vtime.Time, pairs*perPair)
		chain := func(p int) {
			from, to := NodeID(2*p), NodeID(2*p+1)
			at := vtime.Time(0)
			for i := 0; i < perPair; i++ {
				at = f.Transfer(from, to, int64(1<<14+p*512+i), at)
				arrivals[p*perPair+i] = at
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for p := 0; p < pairs; p++ {
				wg.Add(1)
				go func(p int) { defer wg.Done(); chain(p) }(p)
			}
			wg.Wait()
		} else {
			for p := 0; p < pairs; p++ {
				chain(p)
			}
		}
		n, b, _ := fabricTotals(reg)
		return arrivals, n, b, reg.Snapshot().CanonicalJSON()
	}

	sArr, sN, sB, sJSON := run(false)
	pArr, pN, pB, pJSON := run(true)

	if sN != pN || sB != pB {
		t.Fatalf("totals diverge: serial %d/%d, parallel %d/%d", sN, sB, pN, pB)
	}
	for i := range sArr {
		if sArr[i] != pArr[i] {
			t.Fatalf("arrival %d diverges: serial %v, parallel %v", i, sArr[i], pArr[i])
		}
	}
	if !bytes.Equal(sJSON, pJSON) {
		t.Fatalf("canonical snapshots diverge:\nserial:\n%s\nparallel:\n%s", sJSON, pJSON)
	}
}
