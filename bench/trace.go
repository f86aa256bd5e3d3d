package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one interval the benchmark recorded around its own calls into a
// layer. Spans live in memory until the benchmark ends.
type span struct {
	name, layer, workload string
	parent                int // index of the causing span, -1 at the root
	start, end            time.Duration
	ops                   int
}

// tracer collects spans; the benchmark's one driver goroutine owns it.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name, layer, workload string, parent int) int {
	t.spans = append(t.spans, span{name: name, layer: layer, workload: workload,
		parent: parent, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(id, ops int) {
	t.spans[id].end, t.spans[id].ops = time.Since(t.origin), ops
}

// selfTimes returns each span's duration minus what its children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace JSON (chrome://tracing,
// Perfetto): one complete event per span, one track per workload.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tracks := map[string]int{}
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if _, ok := tracks[s.workload]; !ok {
			tracks[s.workload] = len(tracks) + 1
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tracks[s.workload],
			Args: map[string]any{"id": i, "parent": s.parent, "workload": s.workload, "ops": s.ops,
				"self_us": float64(self[i].Nanoseconds()) / 1e3}})
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// prober runs one workload's probes: small programs in the benchmark's own
// files that call one layer's public entry points at the workload's shape.
type prober struct {
	tr    *tracer
	w     *workload
	seed  int64
	slice time.Duration // each probe repeats batches this long; 0 = one batch

	layer string // of the batch in progress
	batch int    // its span

	nsPerOp, allocsPerOp map[string][]float64 // one sample per batch
	values               map[string]float64   // other numbers a probe reports
}

// maxBatches bounds a probe's samples, and so the trace's size, on
// workloads whose batches take microseconds.
const maxBatches = 256

// probe runs batches of one layer's probe under the parent span.
func (p *prober) probe(layer string, parent int, batch func(*prober) error) error {
	p.layer = layer
	for start, n := time.Now(), 0; n == 0 || n < maxBatches && time.Since(start) < p.slice; n++ {
		p.batch = p.tr.begin("probe:"+layer, layer, p.w.name, parent)
		err := batch(p)
		p.tr.end(p.batch, 0)
		if err != nil {
			return fmt.Errorf("%s probe: %w", layer, err)
		}
	}
	return nil
}

// timed measures fn, which performs ops operations, as a child span of the
// batch. Everything a batch does outside timed is the probe's own set-up:
// its batch span's self time.
func (p *prober) timed(key string, ops int, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := p.tr.begin(key, p.layer, p.w.name, p.batch)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(id, ops)
	runtime.ReadMemStats(&after)
	p.nsPerOp[key] = append(p.nsPerOp[key], float64(d.Nanoseconds())/float64(ops))
	p.allocsPerOp[key] = append(p.allocsPerOp[key], float64(after.Mallocs-before.Mallocs)/float64(ops))
}

func (p *prober) ns(key string) float64     { return median(p.nsPerOp[key]) }
func (p *prober) us(key string) float64     { return median(p.nsPerOp[key]) / 1e3 }
func (p *prober) allocs(key string) float64 { return median(p.allocsPerOp[key]) }
