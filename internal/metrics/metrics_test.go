package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"deisago/internal/vtime"
)

func TestID(t *testing.T) {
	if got := ID("scheduler", "messages"); got != "scheduler/messages" {
		t.Fatalf("plain ID = %q", got)
	}
	// Labels are sorted by key regardless of argument order.
	a := ID("scheduler", "messages", L("kind", "heartbeat"), LInt("rank", 3))
	b := ID("scheduler", "messages", LInt("rank", 3), L("kind", "heartbeat"))
	want := "scheduler/messages{kind=heartbeat,rank=3}"
	if a != want || b != want {
		t.Fatalf("labeled IDs = %q, %q, want %q", a, b, want)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("sched", "msgs", L("kind", "submit"))
	c2 := r.Counter("sched", "msgs", L("kind", "submit"))
	if c1 != c2 {
		t.Fatal("same identity must return the same counter")
	}
	if c1 == r.Counter("sched", "msgs", L("kind", "release")) {
		t.Fatal("different labels must return different counters")
	}
	if r.Gauge("w", "mem") != r.Gauge("w", "mem") {
		t.Fatal("same identity must return the same gauge")
	}
	if r.Histogram("link", "wait") != r.Histogram("link", "wait") {
		t.Fatal("same identity must return the same histogram")
	}
	if got := c1.ID(); got != "sched/msgs{kind=submit}" {
		t.Fatalf("counter ID = %q", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "b")
	g := r.Gauge("a", "b")
	h := r.Histogram("a", "b")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must return nil handles")
	}
	// All handle methods must be no-ops, not panics.
	c.Add(5)
	c.Inc()
	if c.Load() != 0 || c.ID() != "" {
		t.Fatal("nil counter must read as zero")
	}
	g.Set(1, 0)
	g.Add(2, 1)
	if g.Value() != 0 || g.Series() != nil || g.ID() != "" {
		t.Fatal("nil gauge must read as zero")
	}
	h.Observe(3)
	if h.Count() != 0 || h.ID() != "" {
		t.Fatal("nil histogram must read as zero")
	}
	if st := h.Stats(); st.N != 0 {
		t.Fatal("nil histogram stats must be empty")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x", "n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
}

func TestGaugeSeries(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("worker", "mem", LInt("id", 0))
	g.Set(10, 1.0)
	g.Add(5, 2.0)
	g.Add(-3, 3.0)
	if g.Value() != 12 {
		t.Fatalf("gauge value = %g, want 12", g.Value())
	}
	s := g.Series()
	if len(s) != 3 || s[0] != (Sample{1, 10}) || s[1] != (Sample{2, 15}) || s[2] != (Sample{3, 12}) {
		t.Fatalf("series = %+v", s)
	}
}

func TestGaugeDecimationDeterministic(t *testing.T) {
	run := func() []Sample {
		g := NewRegistry().Gauge("w", "mem")
		for i := 0; i < 3*maxGaugeSamples; i++ {
			g.Set(float64(i), float64(i))
		}
		return g.Series()
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) > maxGaugeSamples+1 {
		t.Fatalf("series length %d out of bounds", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic decimation: %d vs %d samples", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Samples stay in time order after decimation.
	for i := 1; i < len(a); i++ {
		if a[i].T <= a[i-1].T {
			t.Fatalf("series out of order at %d: %+v", i, a[i-1:i+1])
		}
	}
}

func TestHistogramOrderInvariantStats(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("l", "wait", L("dir", "a"))
	h2 := r.Histogram("l", "wait", L("dir", "b"))
	xs := []float64{5, 1, 4, 2, 3, 0.5, 9, 0.25}
	for _, x := range xs {
		h1.Observe(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		h2.Observe(xs[i])
	}
	s1, s2 := h1.Stats(), h2.Stats()
	if s1 != s2 {
		t.Fatalf("stats depend on observation order: %+v vs %+v", s1, s2)
	}
	if s1.N != len(xs) || s1.Min != 0.25 || s1.Max != 9 {
		t.Fatalf("stats = %+v", s1)
	}
	if h1.Count() != len(xs) {
		t.Fatalf("count = %d", h1.Count())
	}
}

func testRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sched", "msgs", L("kind", "submit")).Add(3)
	r.Counter("sched", "msgs", L("kind", "heartbeat")).Add(7)
	r.Counter("bridge", "publishes").Add(12)
	r.Counter("bridge", "failovers") // zero — dropped from canonical form
	g := r.Gauge("worker", "mem", LInt("id", 1))
	g.Set(100, 0.5)
	g.Set(50, 1.5)
	h := r.Histogram("link", "wait")
	h.Observe(2)
	h.Observe(4)
	return r
}

func TestSnapshotSortedAndLookups(t *testing.T) {
	s := testRegistry().Snapshot()
	if len(s.Counters) != 4 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
		t.Fatalf("snapshot sizes: %d/%d/%d", len(s.Counters), len(s.Gauges), len(s.Histograms))
	}
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].ID >= s.Counters[i].ID {
			t.Fatalf("counters not sorted: %q >= %q", s.Counters[i-1].ID, s.Counters[i].ID)
		}
	}
	if got := s.Counter("bridge/publishes"); got != 12 {
		t.Fatalf("Counter lookup = %d", got)
	}
	if got := s.Counter("no/such"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
	if got := s.SumCounters("sched/msgs"); got != 10 {
		t.Fatalf("SumCounters = %d, want 10", got)
	}
	if got := s.Gauge("worker/mem{id=1}"); got != 50 {
		t.Fatalf("Gauge lookup = %g", got)
	}
	if got := s.Gauge("no/such"); got != 0 {
		t.Fatalf("missing gauge = %g", got)
	}
	h, ok := s.Histogram("link/wait")
	if !ok || h.N != 2 || h.Mean != 3 || h.Min != 2 || h.Max != 4 || h.Sum != 6 {
		t.Fatalf("histogram = %+v ok=%v", h, ok)
	}
	if _, ok := s.Histogram("no/such"); ok {
		t.Fatal("missing histogram must report !ok")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	s := testRegistry().Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Counter("bridge/publishes") != 12 {
		t.Fatal("round trip lost counter value")
	}
	if len(back.Gauges) != 1 || len(back.Gauges[0].Samples) != 2 {
		t.Fatalf("round trip lost gauge samples: %+v", back.Gauges)
	}
}

func TestWriteCSV(t *testing.T) {
	s := testRegistry().Snapshot()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"kind,id,field,value",
		`counter,"bridge/publishes",value,12`,
		`gauge,"worker/mem{id=1}",value,50`,
		`gauge,"worker/mem{id=1}",t=0.5,100`,
		`histogram,"link/wait",p95,`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q in:\n%s", want, out)
		}
	}
}

func TestCanonicalJSON(t *testing.T) {
	a := testRegistry().Snapshot().CanonicalJSON()
	b := testRegistry().Snapshot().CanonicalJSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical form not reproducible:\n%s\nvs\n%s", a, b)
	}
	if strings.Contains(string(a), "failovers") {
		t.Fatal("zero counters must be omitted from the canonical form")
	}
	if !strings.Contains(string(a), `"sched/msgs{kind=heartbeat}": 7`) {
		t.Fatalf("canonical form missing counter:\n%s", a)
	}
	var m map[string]int64
	if err := json.Unmarshal(a, &m); err != nil {
		t.Fatalf("canonical form is not valid JSON: %v\n%s", err, a)
	}
	// Gauges and histograms (virtual-time dependent) must be excluded.
	if strings.Contains(string(a), "worker/mem") || strings.Contains(string(a), "link/wait") {
		t.Fatalf("canonical form must contain counters only:\n%s", a)
	}
	// An all-zero registry still renders valid JSON.
	empty := NewRegistry()
	empty.Counter("a", "b")
	if err := json.Unmarshal(empty.Snapshot().CanonicalJSON(), &m); err != nil {
		t.Fatalf("empty canonical form invalid: %v", err)
	}
}

func TestHistogramStatsNaNFree(t *testing.T) {
	h := NewRegistry().Histogram("x", "y")
	st := h.Stats()
	if st.N != 0 {
		t.Fatalf("empty stats N = %d", st.N)
	}
	for _, v := range []float64{st.Mean, st.Std, st.Sum} {
		if math.IsNaN(v) {
			t.Fatalf("empty stats contain NaN: %+v", st)
		}
	}
}

// Add shifts the gauge by delta at virtual time at. No-op on nil.
func (g *Gauge) Add(delta float64, at vtime.Time) {
	if g == nil {
		return
	}
	g.Set(g.Value()+delta, at)
}

// Count returns the number of observations.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.xs)
}

// Histogram returns the summary for the histogram with the given ID and
// whether it exists.
func (s *Snapshot) Histogram(id string) (HistSnap, bool) {
	for _, h := range s.Histograms {
		if h.ID == id {
			return h, true
		}
	}
	return HistSnap{}, false
}
