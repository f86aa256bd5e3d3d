package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CounterSnap is one counter in a snapshot.
type CounterSnap struct {
	ID    string `json:"id"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a snapshot: final value plus the retained
// virtual-time series.
type GaugeSnap struct {
	ID      string   `json:"id"`
	Value   float64  `json:"value"`
	Samples []Sample `json:"samples,omitempty"`
}

// HistSnap is one histogram in a snapshot, summarized.
type HistSnap struct {
	ID   string  `json:"id"`
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	Sum  float64 `json:"sum"`
}

// Snapshot is a point-in-time export of a registry, sorted by metric ID
// within each section.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
}

// Snapshot captures every metric currently in the registry. Returns an
// empty snapshot on a nil registry.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	// Instruments take their own locks inside the registry's; nothing
	// takes them in the other order.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{ID: c.ID(), Value: c.Load()})
	}
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{ID: g.ID(), Value: g.Value(), Samples: g.Series()})
	}
	for _, h := range r.hists {
		st := h.Stats()
		s.Histograms = append(s.Histograms, HistSnap{
			ID: h.ID(), N: st.N, Mean: st.Mean, Std: st.Std,
			Min: st.Min, Max: st.Max, P50: st.P50, P95: st.P95, Sum: st.Sum,
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].ID < s.Counters[j].ID })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].ID < s.Gauges[j].ID })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].ID < s.Histograms[j].ID })
	return s
}

// Counter returns the value of the counter with the given ID, or 0 if
// the snapshot has no such counter.
func (s *Snapshot) Counter(id string) int64 {
	for _, c := range s.Counters {
		if c.ID == id {
			return c.Value
		}
	}
	return 0
}

// SumCounters sums every counter whose ID starts with prefix — e.g.
// SumCounters("scheduler/messages") totals the per-kind message
// counters.
func (s *Snapshot) SumCounters(prefix string) int64 {
	var total int64
	for _, c := range s.Counters {
		if strings.HasPrefix(c.ID, prefix) {
			total += c.Value
		}
	}
	return total
}

// Gauge returns the final value of the gauge with the given ID, or 0.
func (s *Snapshot) Gauge(id string) float64 {
	for _, g := range s.Gauges {
		if g.ID == id {
			return g.Value
		}
	}
	return 0
}

// WriteJSON writes the full snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as flat CSV rows:
//
//	kind,id,field,value
//
// Counters emit one row; gauges emit a "value" row plus one row per
// retained sample (field "t=<virtual time>"); histograms emit one row
// per summary statistic.
func (s *Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,id,field,value"); err != nil {
		return err
	}
	row := func(kind, id, field string, value interface{}) error {
		_, err := fmt.Fprintf(w, "%s,%q,%s,%v\n", kind, id, field, value)
		return err
	}
	for _, c := range s.Counters {
		if err := row("counter", c.ID, "value", c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := row("gauge", g.ID, "value", g.Value); err != nil {
			return err
		}
		for _, sm := range g.Samples {
			if err := row("gauge", g.ID, fmt.Sprintf("t=%g", sm.T), sm.V); err != nil {
				return err
			}
		}
	}
	for _, h := range s.Histograms {
		for _, f := range []struct {
			name string
			v    interface{}
		}{
			{"n", h.N}, {"mean", h.Mean}, {"std", h.Std}, {"min", h.Min},
			{"max", h.Max}, {"p50", h.P50}, {"p95", h.P95}, {"sum", h.Sum},
		} {
			if err := row("histogram", h.ID, f.name, f.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// CanonicalJSON renders only the run-order-invariant part of the
// snapshot: counters, sorted by ID, zero values omitted. Counters are
// logical event counts — pure functions of the workload — so this form
// is byte-identical across runs with the same seed even though virtual
// timestamps (gauges, histograms) may differ in FCFS tie-breaking.
// Golden regression tests compare exactly these bytes.
func (s *Snapshot) CanonicalJSON() []byte {
	var b strings.Builder
	b.WriteString("{\n")
	first := true
	for _, c := range s.Counters {
		if c.Value == 0 {
			continue
		}
		if !first {
			b.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(&b, "  %q: %d", c.ID, c.Value)
	}
	b.WriteString("\n}\n")
	return []byte(b.String())
}
