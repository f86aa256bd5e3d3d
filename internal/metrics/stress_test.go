package metrics

import (
	"bytes"
	"sync"
	"testing"
)

// hammer drives one registry with the stress workload. Each of n workers
// increments a shared counter, observes into a shared histogram, and
// owns a private counter, gauge, and histogram (private instruments make
// gauge series order-deterministic; the shared ones exercise same-cache-
// line contention). When parallel is false the same work runs on one
// goroutine, giving the serially computed expectation.
func hammer(n, ops int, parallel bool) *Registry {
	r := NewRegistry()
	worker := func(w int) {
		shared := r.Counter("stress", "shared")
		sharedH := r.Histogram("stress", "shared_wait")
		mine := r.Counter("stress", "ops", LInt("worker", w))
		mineG := r.Gauge("stress", "depth", LInt("worker", w))
		mineH := r.Histogram("stress", "latency", LInt("worker", w))
		for i := 0; i < ops; i++ {
			shared.Inc()
			mine.Add(int64(i % 3))
			sharedH.Observe(float64(w*ops + i))
			mineH.Observe(float64(i) * 0.5)
			mineG.Set(float64(i), float64(i))
		}
	}
	if parallel {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) { defer wg.Done(); worker(w) }(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < n; w++ {
			worker(w)
		}
	}
	return r
}

// TestConcurrentStressMatchesSerial hammers shared and distinct
// instruments from many goroutines and requires the canonical JSON and
// the full CSV snapshot to match a serially computed twin byte for byte.
// Counters are order-independent sums, histogram stats sort before
// summarizing (so observation order is invisible), and per-worker gauges see
// their updates in program order — nothing observable may depend on
// goroutine scheduling.
func TestConcurrentStressMatchesSerial(t *testing.T) {
	const workers, ops = 8, 400
	serial := hammer(workers, ops, false)
	conc := hammer(workers, ops, true)

	if got, want := conc.Snapshot().CanonicalJSON(), serial.Snapshot().CanonicalJSON(); !bytes.Equal(got, want) {
		t.Fatalf("canonical snapshots diverge:\nparallel:\n%s\nserial:\n%s", got, want)
	}
	var gotCSV, wantCSV bytes.Buffer
	if err := conc.Snapshot().WriteCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if err := serial.Snapshot().WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != wantCSV.String() {
		t.Fatalf("CSV snapshots diverge:\nparallel:\n%s\nserial:\n%s", gotCSV.String(), wantCSV.String())
	}

	// Spot-check absolute values against arithmetic, not just the twin.
	s := conc.Snapshot()
	if got := s.Counter("stress/shared"); got != workers*ops {
		t.Fatalf("shared counter = %d, want %d", got, workers*ops)
	}
	h, ok := s.Histogram("stress/shared_wait")
	if !ok || h.N != workers*ops {
		t.Fatalf("shared histogram N = %d (ok=%v), want %d", h.N, ok, workers*ops)
	}
}

// TestConcurrentCreateIdentity races many goroutines resolving the same
// never-before-seen identities: every caller must get the same instrument
// (one winner per identity, no lost updates).
func TestConcurrentCreateIdentity(t *testing.T) {
	const workers = 16
	r := NewRegistry()
	got := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Same identity from every goroutine, plus distinct
			// identities created while the others resolve.
			got[w] = r.Counter("race", "winner", L("k", "v"))
			for i := 0; i < 64; i++ {
				r.Counter("race", "filler", LInt("i", i)).Inc()
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d got a different *Counter for the same identity", w)
		}
	}
	for i := 0; i < 64; i++ {
		id := ID("race", "filler", LInt("i", i))
		if v := r.Snapshot().Counter(id); v != workers {
			t.Fatalf("%s = %d, want %d", id, v, workers)
		}
	}
}

// TestLookupZeroAlloc pins the zero-allocation property of the warm read
// path: resolving an existing instrument must not allocate, including the
// label-key rendering (stack buffer) and the map read (string(k) index).
func TestLookupZeroAlloc(t *testing.T) {
	r := NewRegistry()
	// Create the instruments and warm the call path.
	for i := 0; i < 512; i++ {
		r.Counter("fabric", "bytes", L("scope", "remote"))
		r.Histogram("link", "queue_wait", L("link", "node3-eg"))
		r.Gauge("link", "utilization", L("link", "node3-eg"))
	}
	for name, fn := range map[string]func(){
		"counter":   func() { r.Counter("fabric", "bytes", L("scope", "remote")) },
		"histogram": func() { r.Histogram("link", "queue_wait", L("link", "node3-eg")) },
		"gauge":     func() { r.Gauge("link", "utilization", L("link", "node3-eg")) },
	} {
		if avg := testing.AllocsPerRun(200, fn); avg != 0 {
			t.Errorf("%s lookup allocates %v allocs/op, want 0", name, avg)
		}
	}
	// Counter updates on the resolved handle are also alloc-free.
	c := r.Counter("fabric", "bytes", L("scope", "remote"))
	if avg := testing.AllocsPerRun(200, func() { c.Add(7) }); avg != 0 {
		t.Errorf("counter Add allocates %v allocs/op, want 0", avg)
	}
}

// TestPromotionUnderChurn creates instruments while readers resolve
// existing ones, across many identities, and checks nothing is lost or
// duplicated.
func TestPromotionUnderChurn(t *testing.T) {
	const workers, perWorker = 8, 200
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("churn", "c", LInt("w", w), LInt("i", i)).Inc()
				// Re-resolve an earlier identity: must hit the same handle
				// it was created as.
				r.Counter("churn", "c", LInt("w", w), LInt("i", i/2)).Inc()
			}
		}(w)
	}
	wg.Wait()
	s := r.Snapshot()
	if got, want := len(s.Counters), workers*perWorker; got != want {
		t.Fatalf("snapshot has %d counters, want %d", got, want)
	}
	var total int64
	for _, c := range s.Counters {
		total += c.Value
	}
	if want := int64(2 * workers * perWorker); total != want {
		t.Fatalf("total increments = %d, want %d", total, want)
	}
	// A sampled identity carries the exact expected count: i=10 gets one
	// direct Inc plus re-resolve hits from i=20 and i=21.
	id := ID("churn", "c", LInt("w", 3), LInt("i", 10))
	if v := s.Counter(id); v != 3 {
		t.Fatalf("%s = %d, want 3", id, v)
	}
}
