// Package metrics is the virtual-time observability layer of the
// simulator: a registry of counters, gauges, and histograms keyed by
// "component/name{labels}", sampled against the virtual clocks of the
// actors that drive them (package vtime), never against wall time.
//
// The registry exists to turn the paper's quantitative claims into
// assertions: the scheduler counts its messages by kind, so the DEISA1
// formula 2·T·R+heartbeats and the external-task formula 1+R are checked
// per run by the harness test suite instead of being quoted. Logical
// counters (message counts, blocks shipped, bytes striped per OST) are
// pure functions of the workload and therefore identical across runs of
// the same seed — Snapshot.CanonicalJSON exports exactly that subset for
// byte-comparison golden tests. Gauges and histograms carry virtual
// timestamps and durations, which depend on FCFS tie-breaking between
// goroutines, so they are exported for inspection (JSON/CSV, Chrome
// trace counter tracks) but excluded from the canonical form.
//
// Instrumentation must be free on the hot path, so the registry is
// built never to contend where the workload does not: resolving an
// existing instrument is lock-free and allocation-free (the label key
// is rendered into a stack buffer and probed against an immutable map
// snapshot), counters and gauge values are atomics, and histograms
// stripe their observations over independently locked shards. Only the
// first-use creation of an instrument takes the registry mutex. See
// DESIGN.md §14 for the concurrency contract.
//
// All handle methods are nil-safe: a nil *Counter/*Gauge/*Histogram (as
// returned by getters on a nil *Registry) is a no-op, so instrumented
// components work unchanged when no registry is attached.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"deisago/internal/vtime"
)

// Label is one key=value dimension of a metric ID.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// LInt builds a Label with an integer value.
func LInt(key string, value int) Label {
	return Label{Key: key, Value: fmt.Sprintf("%d", value)}
}

// idBufCap sizes the stack buffer identities are rendered into. IDs
// longer than this still work — the append spills to the heap — they
// just stop being allocation-free to resolve.
const idBufCap = 128

// appendID renders the canonical metric identifier
// "component/name{k1=v1,k2=v2}" into dst with labels sorted by key (no
// braces when there are no labels) and returns the extended slice. The
// input labels are never mutated: sorting happens in a small scratch
// copy, kept on the stack for the label counts that occur in practice.
func appendID(dst []byte, component, name string, labels []Label) []byte {
	dst = append(dst, component...)
	dst = append(dst, '/')
	dst = append(dst, name...)
	if len(labels) == 0 {
		return dst
	}
	if len(labels) > 1 {
		var tmp [8]Label
		var ls []Label
		if len(labels) <= len(tmp) {
			ls = tmp[:len(labels)]
		} else {
			ls = make([]Label, len(labels))
		}
		copy(ls, labels)
		for i := 1; i < len(ls); i++ {
			for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
				ls[j], ls[j-1] = ls[j-1], ls[j]
			}
		}
		labels = ls
	}
	dst = append(dst, '{')
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	dst = append(dst, '}')
	return dst
}

// ID renders the canonical metric identifier. Two metrics are the same
// if and only if their IDs are equal.
func ID(component, name string, labels ...Label) string {
	var kb [idBufCap]byte
	return string(appendID(kb[:0], component, name, labels))
}

// rcuMap is a two-level map with a lock-free read path. The clean level
// is an immutable snapshot behind an atomic pointer: readers probe it
// without synchronization and without materializing the key string.
// Identities not yet promoted live in the dirty level, reachable only
// through the slow path under Registry.mu; promotion merges dirty into
// a fresh clean snapshot once dirty grows past a fraction of clean (so
// total copying stays amortized linear-ish even when thousands of
// instruments are created eagerly) or once dirty entries have absorbed
// enough locked lookups that leaving them unpromoted would make a warm
// call site keep paying for the mutex.
type rcuMap[T any] struct {
	clean     atomic.Pointer[map[string]T]
	dirty     map[string]T // guarded by Registry.mu
	dirtyHits int          // locked lookups served from dirty since last promote
}

func (m *rcuMap[T]) init() {
	empty := map[string]T{}
	m.clean.Store(&empty)
	m.dirty = map[string]T{}
}

// get probes the lock-free clean level. The compiler elides the
// string(k) materialization in the map index, so a hit costs no
// allocation and no lock.
func (m *rcuMap[T]) get(k []byte) (T, bool) {
	v, ok := (*m.clean.Load())[string(k)]
	return v, ok
}

// promotion thresholds: see rcuMap.
const (
	dirtyPromoteMin  = 16
	dirtyPromoteHits = 64
)

// getOrCreate resolves id through the dirty level, creating the
// instrument on first use. Caller holds Registry.mu.
func (m *rcuMap[T]) getOrCreate(id string, mk func() T) T {
	if v, ok := m.dirty[id]; ok {
		m.dirtyHits++
		if m.dirtyHits >= dirtyPromoteHits {
			m.promote()
		}
		return v
	}
	clean := *m.clean.Load()
	if v, ok := clean[id]; ok {
		// Published concurrently with the reader's failed probe.
		return v
	}
	v := mk()
	m.dirty[id] = v
	if n := len(m.dirty); n >= dirtyPromoteMin && 4*n >= len(clean) {
		m.promote()
	}
	return v
}

// promote merges dirty into a fresh immutable clean snapshot. Caller
// holds Registry.mu.
func (m *rcuMap[T]) promote() {
	clean := *m.clean.Load()
	merged := make(map[string]T, len(clean)+len(m.dirty))
	for k, v := range clean {
		merged[k] = v
	}
	for k, v := range m.dirty {
		merged[k] = v
	}
	m.clean.Store(&merged)
	m.dirty = map[string]T{}
	m.dirtyHits = 0
}

// each calls fn for every instrument across both levels. Caller holds
// Registry.mu; an identity lives in exactly one level.
func (m *rcuMap[T]) each(fn func(T)) {
	for _, v := range *m.clean.Load() {
		fn(v)
	}
	for _, v := range m.dirty {
		fn(v)
	}
}

// Registry holds every metric of one run. All methods are safe for
// concurrent use; getters on a nil registry return nil handles.
// Resolving an existing instrument never takes the mutex — only
// first-use creation (and promotion bookkeeping) does.
type Registry struct {
	mu       sync.Mutex // creation slow path and snapshot collection only
	counters rcuMap[*Counter]
	gauges   rcuMap[*Gauge]
	hists    rcuMap[*Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.counters.init()
	r.gauges.init()
	r.hists.init()
	return r
}

// Counter returns (creating on first use) the counter with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	if c, ok := r.counters.get(k); ok {
		return c
	}
	return r.counterSlow(string(k))
}

func (r *Registry) counterSlow(id string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters.getOrCreate(id, func() *Counter { return &Counter{id: id} })
}

// Gauge returns (creating on first use) the gauge with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	if g, ok := r.gauges.get(k); ok {
		return g
	}
	return r.gaugeSlow(string(k))
}

func (r *Registry) gaugeSlow(id string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges.getOrCreate(id, func() *Gauge { return &Gauge{id: id, stride: 1} })
}

// Histogram returns (creating on first use) the histogram with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Histogram(component, name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	if h, ok := r.hists.get(k); ok {
		return h
	}
	return r.histogramSlow(string(k))
}

func (r *Registry) histogramSlow(id string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hists.getOrCreate(id, func() *Histogram { return &Histogram{id: id} })
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	id string
	v  atomic.Int64
}

// ID returns the counter's canonical identifier.
func (c *Counter) ID() string {
	if c == nil {
		return ""
	}
	return c.id
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Sample is one virtual-time point of a gauge series.
type Sample struct {
	T vtime.Time `json:"t"`
	V float64    `json:"v"`
}

// maxGaugeSamples bounds a gauge's retained time series. When the cap
// is reached the series is decimated deterministically (every other
// retained sample is dropped and the keep stride doubles), so the same
// sequence of Set calls always yields the same series regardless of how
// long it is.
const maxGaugeSamples = 2048

// Gauge is an instantaneous value with a virtual-time series of its
// updates (the counter tracks of a Chrome trace). The current value is
// an atomic (lock-free reads); only the retained series is mutex
// guarded, per gauge.
type Gauge struct {
	id  string
	cur atomic.Uint64 // Float64bits of the current value

	mu      sync.Mutex
	updates int64 // Set calls seen
	stride  int64 // keep every stride-th update in the series
	samples []Sample
}

// ID returns the gauge's canonical identifier.
func (g *Gauge) ID() string {
	if g == nil {
		return ""
	}
	return g.id
}

// Set records a new value observed at virtual time at. No-op on nil.
func (g *Gauge) Set(v float64, at vtime.Time) {
	if g == nil {
		return
	}
	g.cur.Store(math.Float64bits(v))
	g.mu.Lock()
	if g.updates%g.stride == 0 {
		if len(g.samples) >= maxGaugeSamples {
			// Deterministic decimation: keep even indices, double stride.
			kept := g.samples[:0]
			for i := 0; i < len(g.samples); i += 2 {
				kept = append(kept, g.samples[i])
			}
			g.samples = kept
			g.stride *= 2
		}
		g.samples = append(g.samples, Sample{T: at, V: v})
	}
	g.updates++
	g.mu.Unlock()
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.cur.Load())
}

// Series returns a copy of the retained samples in update order.
func (g *Gauge) Series() []Sample {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Sample(nil), g.samples...)
}

// histShards stripes a histogram's observations. Observation order
// inside and across shards is immaterial: Stats sorts the merged sample
// set before summarizing, so the result is bit-identical to a single
// serially filled list.
const histShards = 8

type histShard struct {
	mu sync.Mutex
	xs []float64
	_  [32]byte // keep neighboring shards off one cache line
}

// Histogram collects float64 observations (virtual durations, queue
// waits) and summarizes them with the vtime percentile statistics.
// Observations go to one of histShards independently locked stripes
// picked round-robin, so concurrent observers of one instrument contend
// 1/histShards as often as on a single lock.
type Histogram struct {
	id string
	rr atomic.Uint32
	sh [histShards]histShard
}

// ID returns the histogram's canonical identifier.
func (h *Histogram) ID() string {
	if h == nil {
		return ""
	}
	return h.id
}

// Observe records one sample. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := &h.sh[h.rr.Add(1)%histShards]
	s.mu.Lock()
	s.xs = append(s.xs, v)
	s.mu.Unlock()
}

// gather copies every shard's samples into one slice.
func (h *Histogram) gather() []float64 {
	n := 0
	for i := range h.sh {
		s := &h.sh[i]
		s.mu.Lock()
		n += len(s.xs)
		s.mu.Unlock()
	}
	xs := make([]float64, 0, n)
	for i := range h.sh {
		s := &h.sh[i]
		s.mu.Lock()
		xs = append(xs, s.xs...)
		s.mu.Unlock()
	}
	return xs
}

// Stats summarizes the observations. The merged samples are sorted
// before summarizing so the result (including the floating-point Sum)
// is independent of observation order and of how observations were
// striped over shards.
func (h *Histogram) Stats() vtime.Stats {
	if h == nil {
		return vtime.Stats{}
	}
	xs := h.gather()
	sort.Float64s(xs)
	return vtime.Summarize(xs)
}
