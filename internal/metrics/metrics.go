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
// Hot call sites resolve their handles once and keep them, so the
// instruments are the plainest that stay race-free: counters are
// atomics, and the registry, each gauge and each histogram is guarded
// by one mutex of its own. Resolving an existing instrument allocates
// nothing (the label key is rendered into a stack buffer and probed
// without materializing the string). See DESIGN.md §14 for the
// concurrency contract.
//
// All handle methods are nil-safe: a nil *Counter/*Gauge/*Histogram (as
// returned by getters on a nil *Registry) is a no-op, so instrumented
// components work unchanged when no registry is attached.
package metrics

import (
	"fmt"
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

// Registry holds every metric of one run. All methods are safe for
// concurrent use; getters on a nil registry return nil handles. One
// mutex guards the three maps: every hot call site holds a resolved
// handle, so a run makes at most a few thousand lookups and the lock is
// rarely contended.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// resolve returns m's instrument for the rendered identity k, creating
// it with mk on first use. Caller holds Registry.mu. Indexing with
// string(k) does not materialize the key, so a warm lookup allocates
// nothing.
func resolve[T any](m map[string]*T, k []byte, mk func(id string) *T) *T {
	if v, ok := m[string(k)]; ok {
		return v
	}
	id := string(k)
	v := mk(id)
	m[id] = v
	return v
}

// Counter returns (creating on first use) the counter with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Counter(component, name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.counters, k, func(id string) *Counter { return &Counter{id: id} })
}

// Gauge returns (creating on first use) the gauge with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Gauge(component, name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.gauges, k, func(id string) *Gauge { return &Gauge{id: id, stride: 1} })
}

// Histogram returns (creating on first use) the histogram with the given
// identity. Returns nil on a nil registry.
func (r *Registry) Histogram(component, name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var kb [idBufCap]byte
	k := appendID(kb[:0], component, name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	return resolve(r.hists, k, func(id string) *Histogram { return &Histogram{id: id} })
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
// updates (the counter tracks of a Chrome trace), both guarded by the
// gauge's own mutex.
type Gauge struct {
	id string

	mu      sync.Mutex
	cur     float64 // current value
	updates int64   // Set calls seen
	stride  int64   // keep every stride-th update in the series
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
	g.mu.Lock()
	g.cur = v
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
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
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

// Histogram collects float64 observations (virtual durations, queue
// waits) and summarizes them with the vtime percentile statistics.
type Histogram struct {
	id string
	mu sync.Mutex
	xs []float64
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
	h.mu.Lock()
	h.xs = append(h.xs, v)
	h.mu.Unlock()
}

// Stats summarizes the observations. A copy of the samples is sorted
// before summarizing, so the result (including the floating-point Sum)
// is independent of observation order.
func (h *Histogram) Stats() vtime.Stats {
	if h == nil {
		return vtime.Stats{}
	}
	h.mu.Lock()
	xs := append([]float64(nil), h.xs...)
	h.mu.Unlock()
	sort.Float64s(xs)
	return vtime.Summarize(xs)
}
