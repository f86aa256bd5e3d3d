package dask

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"deisago/internal/metrics"
	"deisago/internal/taskgraph"
)

// Task tracing: the virtual-time equivalent of the Dask dashboard's task
// stream. When enabled on a cluster, every task execution records a span
// (key, worker, start/end in virtual seconds); WriteChromeTrace writes
// the spans in the Chrome trace-event format so they can be inspected in
// chrome://tracing or Perfetto.

// TraceEvent is one task-execution span in virtual time. Aborted marks
// a span cut short by a worker kill: the span is closed at the kill
// time and the task produced no result on this worker.
type TraceEvent struct {
	Key     taskgraph.Key
	Worker  int
	Start   float64 // virtual seconds
	End     float64
	Erred   bool
	Aborted bool
}

type tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (t *tracer) add(e TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// EnableTracing starts recording task-execution spans. Call before
// submitting work.
func (c *Cluster) EnableTracing() {
	c.traceMu.Lock()
	if c.trace == nil {
		c.trace = &tracer{}
	}
	c.traceMu.Unlock()
}

// TraceEvents returns the spans recorded so far, sorted by start time.
func (c *Cluster) TraceEvents() []TraceEvent {
	c.traceMu.Lock()
	tr := c.trace
	c.traceMu.Unlock()
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	out := append([]TraceEvent(nil), tr.events...)
	tr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func (c *Cluster) tracer() *tracer {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.trace
}

// chromeEvent is the trace-event JSON schema (subset).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes task spans (Cluster.TraceEvents) as a Chrome
// trace-event JSON array: one complete event ("ph":"X") per task, with
// the worker as the thread; virtual seconds map to trace microseconds.
// When snap is non-nil it adds one counter track ("ph":"C") per gauge
// time series — worker memory, scheduler queue depths, link utilization
// — so chrome://tracing or Perfetto render them as area charts under
// the task stream.
func WriteChromeTrace(w io.Writer, events []TraceEvent, snap *metrics.Snapshot) error {
	out := make([]chromeEvent, 0, len(events))
	for _, e := range events {
		cat := "task"
		switch {
		case e.Aborted:
			cat = "aborted"
		case e.Erred:
			cat = "erred"
		}
		out = append(out, chromeEvent{
			Name: string(e.Key),
			Cat:  cat,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  (e.End - e.Start) * 1e6,
			Pid:  0,
			Tid:  e.Worker,
			Args: map[string]any{"erred": e.Erred, "aborted": e.Aborted},
		})
	}
	if snap != nil {
		for _, g := range snap.Gauges {
			for _, s := range g.Samples {
				out = append(out, chromeEvent{
					Name: g.ID,
					Cat:  "metric",
					Ph:   "C",
					Ts:   s.T * 1e6,
					Pid:  0,
					Args: map[string]any{"value": s.V},
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("dask: trace export: %w", err)
	}
	return nil
}
