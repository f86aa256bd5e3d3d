package vtime

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
	if got := c.Advance(1.5); got != 1.5 {
		t.Fatalf("Advance(1.5) = %v, want 1.5", got)
	}
	if got := c.Advance(0); got != 1.5 {
		t.Fatalf("Advance(0) = %v, want 1.5", got)
	}
	if got := c.Now(); got != 1.5 {
		t.Fatalf("Now() = %v, want 1.5", got)
	}
}

func TestClockOrigin(t *testing.T) {
	c := NewClock(10)
	if got := c.Now(); got != 10 {
		t.Fatalf("Now() = %v, want 10", got)
	}
}

func TestClockSyncMonotone(t *testing.T) {
	c := NewClock(5)
	if got := c.Sync(3); got != 5 {
		t.Fatalf("Sync(3) = %v, want 5 (clock must not go backwards)", got)
	}
	if got := c.Sync(7); got != 7 {
		t.Fatalf("Sync(7) = %v, want 7", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestResourceFCFS(t *testing.T) {
	r := NewResource("pfs")
	s1, e1 := r.Acquire(0, 2)
	if s1 != 0 || e1 != 2 {
		t.Fatalf("first acquire = (%v,%v), want (0,2)", s1, e1)
	}
	// Arrives while busy: queued behind the first request.
	s2, e2 := r.Acquire(1, 3)
	if s2 != 2 || e2 != 5 {
		t.Fatalf("second acquire = (%v,%v), want (2,5)", s2, e2)
	}
	// Arrives after idle: starts at arrival.
	s3, e3 := r.Acquire(10, 1)
	if s3 != 10 || e3 != 11 {
		t.Fatalf("third acquire = (%v,%v), want (10,11)", s3, e3)
	}
	if got := r.Busy(); got != 6 {
		t.Fatalf("Busy() = %v, want 6", got)
	}
	if got := r.Requests(); got != 3 {
		t.Fatalf("Requests() = %v, want 3", got)
	}
}

func TestResourceZeroService(t *testing.T) {
	r := NewResource("nic")
	s, e := r.Acquire(4, 0)
	if s != 4 || e != 4 {
		t.Fatalf("zero-service acquire = (%v,%v), want (4,4)", s, e)
	}
}

func TestResourceReset(t *testing.T) {
	r := NewResource("x")
	r.Acquire(0, 5)
	r.Reset()
	if r.FreeAt() != 0 || r.Busy() != 0 || r.Requests() != 0 {
		t.Fatalf("Reset did not clear state: freeAt=%v busy=%v nreq=%v",
			r.FreeAt(), r.Busy(), r.Requests())
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire with negative duration did not panic")
		}
	}()
	NewResource("x").Acquire(0, -1)
}

// Property: for any sequence of requests, every booking starts no earlier
// than its request time, has the exact requested length, bookings are
// pairwise disjoint, and total busy time equals the sum of requested
// durations (work conservation).
func TestResourceInvariantsQuick(t *testing.T) {
	type iv struct{ s, e Time }
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewResource("q")
		var got []iv
		var total Dur
		for i := 0; i < int(n%50)+1; i++ {
			at := rng.Float64() * 100
			d := rng.Float64() * 10
			s, e := r.Acquire(at, d)
			if s < at {
				return false // started before arrival
			}
			if math.Abs((e-s)-d) > 1e-12 {
				return false // wrong service length
			}
			got = append(got, iv{s, e})
			total += d
		}
		// Pairwise disjoint.
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				a, b := got[i], got[j]
				if a.s < b.e-1e-12 && b.s < a.e-1e-12 {
					return false
				}
			}
		}
		return math.Abs(r.Busy()-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Gap filling: a booking requested at an earlier virtual time than an
// existing one slots into the free gap instead of queueing behind it —
// the property that makes the simulation insensitive to goroutine
// execution order.
func TestResourceGapFilling(t *testing.T) {
	r := NewResource("gap")
	// Future booking first (an actor that ran ahead in real time).
	s1, e1 := r.Acquire(10, 2)
	if s1 != 10 || e1 != 12 {
		t.Fatalf("future booking = (%v,%v)", s1, e1)
	}
	// An earlier-virtual-time request must not queue behind it.
	s2, e2 := r.Acquire(1, 3)
	if s2 != 1 || e2 != 4 {
		t.Fatalf("early request pushed back: (%v,%v), want (1,4)", s2, e2)
	}
	// A request that does not fit in the gap goes after the future one.
	s3, _ := r.Acquire(4, 7)
	if s3 != 12 {
		t.Fatalf("oversized request = start %v, want 12", s3)
	}
	// A request that fits exactly in the remaining gap uses it.
	s4, e4 := r.Acquire(0, 6)
	if s4 != 4 || e4 != 10 {
		t.Fatalf("exact-fit request = (%v,%v), want (4,10)", s4, e4)
	}
}

func TestResourceExtend(t *testing.T) {
	r := NewResource("ext")
	r.Acquire(0, 1)
	r.Extend(5)
	if r.FreeAt() != 5 {
		t.Fatalf("FreeAt after Extend = %v", r.FreeAt())
	}
	if math.Abs(r.Busy()-5) > 1e-12 {
		t.Fatalf("Busy after Extend = %v", r.Busy())
	}
	r.Extend(3) // earlier than horizon: no-op
	if r.FreeAt() != 5 {
		t.Fatal("Extend shrank the horizon")
	}
}

// Property: concurrent acquires never produce overlapping service windows.
func TestResourceConcurrentNoOverlap(t *testing.T) {
	r := NewResource("conc")
	const G = 16
	const per = 50
	type iv struct{ s, e Time }
	out := make([][]iv, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < per; i++ {
				s, e := r.Acquire(rng.Float64()*10, rng.Float64())
				out[g] = append(out[g], iv{s, e})
			}
		}(g)
	}
	wg.Wait()
	var all []iv
	for _, o := range out {
		all = append(all, o...)
	}
	// Sort by start and verify disjointness.
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[j].s < all[i].s {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 1; i < len(all); i++ {
		if all[i].s < all[i-1].e-1e-12 {
			t.Fatalf("overlap: [%v,%v) then [%v,%v)", all[i-1].s, all[i-1].e, all[i].s, all[i].e)
		}
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.N != 8 {
		t.Fatalf("N = %d", st.N)
	}
	if math.Abs(st.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", st.Mean)
	}
	if math.Abs(st.Std-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", st.Std)
	}
	if st.Min != 2 || st.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", st.Min, st.Max)
	}
	if st.Sum != 40 {
		t.Fatalf("Sum = %v", st.Sum)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if st := Summarize(nil); st.N != 0 || st.Mean != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	st := Summarize([]float64{3})
	if st.N != 1 || st.Mean != 3 || st.Std != 0 || st.P50 != 3 || st.P95 != 3 {
		t.Fatalf("single stats = %+v", st)
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	st := Summarize(xs)
	if math.Abs(st.P50-5.5) > 1e-12 {
		t.Fatalf("P50 = %v, want 5.5", st.P50)
	}
	if math.Abs(st.P95-9.55) > 1e-12 {
		t.Fatalf("P95 = %v, want 9.55", st.P95)
	}
}

// Property: mean of Summarize lies within [min, max] and std is
// non-negative for arbitrary inputs.
func TestSummarizeQuick(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		st := Summarize(clean)
		if st.N == 0 {
			return true
		}
		return st.Mean >= st.Min-1e-9 && st.Mean <= st.Max+1e-9 && st.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxTime(t *testing.T) {
	if MaxTime() != 0 {
		t.Fatal("MaxTime() != 0")
	}
	if MaxTime(3, 1, 2) != 3 {
		t.Fatal("MaxTime(3,1,2) != 3")
	}
	if MaxTime(-5, -2, -9) != -2 {
		t.Fatal("MaxTime over negatives wrong")
	}
}

// Watermark returns the current release watermark.
func (r *Resource) Watermark() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.watermark
}

// IntervalCount returns the number of distinct busy intervals currently
// retained. It exists so tests and benchmarks can assert that compaction
// bounds the booking table.
func (r *Resource) IntervalCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.intervals)
}

// FreeAt returns the time after which the resource has no bookings.
func (r *Resource) FreeAt() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.horizon()
}

// Requests returns the number of Acquire calls served.
func (r *Resource) Requests() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nreq
}
