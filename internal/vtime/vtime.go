// Package vtime provides explicit virtual-time bookkeeping for the
// cluster simulation underlying this repository.
//
// The repository reproduces experiments that were originally run on a
// supercomputer (Irene/TGCC). Instead of measuring wall-clock time of an
// in-process simulation — which would be dominated by Go scheduling noise
// and would not reflect InfiniBand or Lustre behaviour — every actor
// (MPI rank, Dask worker, scheduler, client) carries a virtual Clock and
// every message carries a virtual timestamp. Shared hardware (NIC ports,
// switch uplinks, the parallel file system, the scheduler CPU) is modelled
// as an FCFS Resource with a service rate; queueing delays therefore emerge
// naturally from contention, which is exactly the effect the paper's
// figures depend on (shared-PFS bottleneck, centralized-scheduler overload,
// switch-distance variability).
//
// Time is a float64 number of virtual seconds since the start of a run.
package vtime

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Time is an absolute virtual time in seconds since run start.
type Time = float64

// Dur is a virtual duration in seconds.
type Dur = float64

// Clock is the virtual clock of a single logical actor. An actor advances
// its own clock when it performs local work and synchronizes it against
// message timestamps on receive (Lamport-style: local time never goes
// backwards). Clock is safe for concurrent use, although a well-formed
// actor only advances its own clock from one goroutine.
type Clock struct {
	mu  sync.Mutex
	now Time
}

// NewClock returns a clock starting at the given origin.
func NewClock(origin Time) *Clock {
	return &Clock{now: origin}
}

// Now returns the current virtual time.
func (c *Clock) Now() Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance adds d (which must be non-negative) of local work to the clock
// and returns the new time.
func (c *Clock) Advance(d Dur) Time {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative advance %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += d
	return c.now
}

// Sync raises the clock to t if t is later than the current time and
// returns the (possibly unchanged) current time. It models blocking until
// an event that completes at absolute time t.
func (c *Clock) Sync(t Time) Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.now {
		c.now = t
	}
	return c.now
}

// Resource models a serially shared piece of hardware (a NIC port, a
// switch uplink, the PFS, one scheduler CPU). A request for d seconds of
// service starting no earlier than time t is booked into the earliest
// free interval of length d at or after t.
//
// Gap-filling (rather than simple tail-append FCFS) matters because the
// simulation's goroutines make their reservations in real execution
// order, which may differ from virtual-time order: an actor that runs
// ahead in real time must not push back requests that happen earlier in
// virtual time. Requests with equal virtual arrival times still
// serialize, so contention and aggregate-bandwidth behaviour are
// preserved: n transfers of size s over a link of bandwidth b all
// complete by n·s/b.
type Resource struct {
	name string

	mu        sync.Mutex
	intervals []interval // sorted, disjoint busy intervals
	watermark Time       // no future Acquire may arrive before this
	busy      Dur        // total service time accumulated
	nreq      int64
}

type interval struct {
	start, end Time
}

// NewResource returns a named, idle resource.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Acquire requests d seconds of exclusive service starting no earlier than
// at. It returns the service start and end times. d must be non-negative.
func (r *Resource) Acquire(at Time, d Dur) (start, end Time) {
	if d < 0 {
		panic(fmt.Sprintf("vtime: negative service time %v on %s", d, r.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if at < r.watermark {
		panic(fmt.Sprintf("vtime: acquire at %v on %s below released watermark %v", at, r.name, r.watermark))
	}
	r.busy += d
	r.nreq++
	start = r.book(at, d)
	return start, start + d
}

// Release promises that no future Acquire on this resource will arrive
// before the given time, and compacts the booking history below that
// watermark into a single prefix interval. Every gap between compacted
// intervals ends strictly before the watermark, so no booking arriving at
// or after it could ever have been placed there: Acquire results, Busy,
// Requests and FreeAt are unchanged, while the interval table stays
// bounded by the live window instead of growing with run length.
//
// Release is monotone (an earlier watermark is ignored) and Acquire
// panics if the promise is broken, so a miswired caller fails loudly
// instead of silently perturbing virtual-time results.
func (r *Resource) Release(before Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if before <= r.watermark {
		return
	}
	r.watermark = before
	r.compact()
}

// compact merges all intervals ending at or below the watermark into one
// prefix interval and trims pathological slack capacity. Caller holds
// r.mu.
func (r *Resource) compact() {
	// Ends are sorted (intervals are sorted and disjoint), so binary
	// search for the first interval still reachable by a future booking.
	lo, hi := 0, len(r.intervals)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.intervals[mid].end <= r.watermark {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < 2 {
		return
	}
	r.intervals[0].end = r.intervals[lo-1].end
	n := copy(r.intervals[1:], r.intervals[lo:])
	r.intervals = r.intervals[:1+n]
	// Bound memory, not just length: once the live window is much smaller
	// than the retained capacity, reallocate.
	if cap(r.intervals) > 64 && cap(r.intervals) > 4*len(r.intervals) {
		trimmed := make([]interval, len(r.intervals), 2*len(r.intervals))
		copy(trimmed, r.intervals)
		r.intervals = trimmed
	}
}

// book finds the earliest gap of length d at or after at, inserts the
// booking, and returns its start. Caller holds r.mu.
func (r *Resource) book(at Time, d Dur) Time {
	// Binary search for the first interval ending after at.
	lo, hi := 0, len(r.intervals)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.intervals[mid].end <= at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := at
	i := lo
	for i < len(r.intervals) {
		iv := r.intervals[i]
		if start+d <= iv.start {
			break // fits in the gap before interval i
		}
		if iv.end > start {
			start = iv.end
		}
		i++
	}
	r.insert(i, interval{start, start + d})
	return start
}

// insert places iv at position i, coalescing with touching neighbors.
// Caller holds r.mu.
func (r *Resource) insert(i int, iv interval) {
	// Merge with predecessor if contiguous.
	if i > 0 && r.intervals[i-1].end >= iv.start {
		r.intervals[i-1].end = iv.end
		// Merge with successor if now contiguous.
		if i < len(r.intervals) && r.intervals[i].start <= iv.end {
			r.intervals[i-1].end = r.intervals[i].end
			r.intervals = append(r.intervals[:i], r.intervals[i+1:]...)
		}
		return
	}
	if i < len(r.intervals) && r.intervals[i].start <= iv.end {
		r.intervals[i].start = iv.start
		return
	}
	r.intervals = append(r.intervals, interval{})
	copy(r.intervals[i+1:], r.intervals[i:])
	r.intervals[i] = iv
}

// Extend marks the resource busy until the given time if that is later
// than its current horizon, attributing the extra span as busy time. It
// supports callers whose service duration is only known after work (e.g.
// a worker CPU blocked on a dynamically-priced I/O operation).
func (r *Resource) Extend(until Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	horizon := r.horizon()
	if until > horizon {
		r.busy += until - horizon
		r.insert(len(r.intervals), interval{horizon, until})
	}
}

// horizon returns the end of the last busy interval. Caller holds r.mu.
func (r *Resource) horizon() Time {
	if len(r.intervals) == 0 {
		return 0
	}
	return r.intervals[len(r.intervals)-1].end
}

// Busy returns the total service time the resource has performed.
func (r *Resource) Busy() Dur {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// Reset returns the resource to the idle state at time 0, clearing
// accumulated statistics.
func (r *Resource) Reset() {
	r.mu.Lock()
	r.intervals, r.busy, r.nreq = nil, 0, 0
	r.watermark = 0
	r.mu.Unlock()
}

// Stats summarizes a sample set.
type Stats struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	P50, P95  float64
	Sum       float64
}

// Summarize computes summary statistics over xs. An empty input yields a
// zero Stats value. The input is sorted once into a scratch copy and that
// ordering is reused for Min, Max and every percentile; Sum, Mean and Std
// still accumulate in the caller's order so their floating-point results
// are unchanged from the historical implementation.
func Summarize(xs []float64) Stats {
	var st Stats
	st.N = len(xs)
	if st.N == 0 {
		return st
	}
	sorted := make([]float64, st.N)
	copy(sorted, xs)
	sort.Float64s(sorted)
	st.Min, st.Max = sorted[0], sorted[st.N-1]
	for _, x := range xs {
		st.Sum += x
	}
	st.Mean = st.Sum / float64(st.N)
	var ss float64
	for _, x := range xs {
		d := x - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(st.N))
	st.P50 = percentile(sorted, 0.50)
	st.P95 = percentile(sorted, 0.95)
	return st
}

// percentile returns the p-quantile (0..1) of a sorted slice using linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MaxTime returns the maximum of the given times, or 0 for no arguments.
func MaxTime(ts ...Time) Time {
	var m Time
	for i, t := range ts {
		if i == 0 || t > m {
			m = t
		}
	}
	return m
}
