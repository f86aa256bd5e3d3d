package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

var testOptions = options{seed: 1, seconds: 1, runs: 2}

// TestSmoke runs every workload at two runs per loop and every probe once,
// and holds what is emitted to what BENCHMARK.json and metricDefs declare.
func TestSmoke(t *testing.T) {
	rep, tr, err := runBenchmark(workloads(), testOptions, -1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	d := loadDeclared(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(d.Workloads) != len(rep.Workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark ran %d", len(d.Workloads), len(rep.Workloads))
	}
	for i, w := range rep.Workloads {
		if dw := d.Workloads[i]; dw.Name != w.Name || dw.Why != w.Why || !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: ran %q (%q), declared %q (%q)", i, w.Name, w.Why, dw.Name, dw.Why)
		}
	}

	// Declared metrics equal metricDefs, field by field.
	var endToEnd, perLayer []string
	for i, def := range defsOf(gated) {
		endToEnd = append(endToEnd, def.name)
		if i >= len(d.EndToEnd) {
			t.Fatalf("BENCHMARK.json lacks end_to_end metric %s", def.name)
		}
		if got := d.EndToEnd[i]; got.Name != def.name || got.Unit != def.unit || got.Better != def.better || got.Bound != def.bound {
			t.Errorf("end_to_end[%d] = %+v, metricDefs has %+v", i, got, def)
		}
		if def.bound <= 0 || def.bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", def.name, def.bound)
		}
	}
	for i, def := range defsOf(specific, layer) {
		perLayer = append(perLayer, def.name)
		if i >= len(d.PerLayer) {
			t.Fatalf("BENCHMARK.json lacks per_layer metric %s", def.name)
		}
		if got := d.PerLayer[i]; got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
			t.Errorf("per_layer[%d] = %+v, metricDefs has %+v", i, got, def)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, metricDefs %d+%d", len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, def := range metricDefs {
		if !nameRE.MatchString(def.name) || !unitRE.MatchString(def.unit) || seen[def.name] {
			t.Errorf("metric %q with unit %q: bad or repeated", def.name, def.unit)
		}
		seen[def.name] = true
	}

	// The driver's JSON lines carry exactly the declared names, each with a unit.
	for _, w := range rep.Workloads {
		for _, c := range []struct {
			line workloadReport
			want []string
		}{
			{workloadReport{EndToEnd: w.EndToEnd}, endToEnd},
			{workloadReport{PerLayer: w.PerLayer}, perLayer},
		} {
			var buf bytes.Buffer
			if err := printContractLine(&buf, c.line); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   *bool
				Attempted int
				Failed    *int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s: %v in %s", w.Name, err, buf.String())
			}
			if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s: line reports a failure: %s", w.Name, buf.String())
			}
			if len(line.Metrics) != len(c.want) {
				t.Errorf("%s: line has %d metrics, want %d", w.Name, len(line.Metrics), len(c.want))
			}
			for _, name := range c.want {
				if m, ok := line.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
					t.Errorf("%s: line lacks %s or its unit", w.Name, name)
				}
			}
		}
		// Every end-to-end section also carries the workload-specific metrics.
		for _, def := range defsOf(gated, specific) {
			if _, ok := w.EndToEnd.Metrics[def.name]; !ok {
				t.Errorf("%s: end-to-end section lacks %s", w.Name, def.name)
			}
		}
		for _, def := range defsOf(gated) {
			if w.EndToEnd.Metrics[def.name] <= 0 {
				t.Errorf("%s: gated metric %s = %g, must never be 0", w.Name, def.name, w.EndToEnd.Metrics[def.name])
			}
		}
		for _, name := range []string{"harness.goroutines_leaked", "worker.spill_events_per_run", "bridge.retries_per_run", "failed_frac"} {
			if v := w.PerLayer.Metrics[name]; v != 0 {
				t.Errorf("%s: %s = %g, want 0", w.Name, name, v)
			}
		}
	}

	// The result and the trace are written, and the trace has a span of
	// every probed layer under every workload's root.
	dir := t.TempDir()
	if err := finish(rep, tr, dir, false, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := loadReport(filepath.Join(dir, "result.json")); err != nil {
		t.Error(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range hostTimedLayers {
		if !strings.Contains(string(raw), `"probe:`+l.name+`"`) {
			t.Errorf("trace has no span of the %s probe", l.name)
		}
	}
	if err := compareFiles(filepath.Join(dir, "result.json"), filepath.Join(dir, "result.json"), io.Discard); err != nil {
		t.Errorf("a result compared with itself: %v", err)
	}
}

// TestCheckerBites proves the output check can fail: a wrong reference
// fingerprint or a wrong task-count formula fails every run, and a failed
// run fails the command.
func TestCheckerBites(t *testing.T) {
	w := workloads()[0]
	ins, err := w.setup(testOptions, false)
	if err != nil {
		t.Fatal(err)
	}
	if st := w.loop(ins, testOptions, 0, nil); st.failed != 0 {
		t.Fatalf("untampered: %s", st.firstFailure)
	}
	good := w.refs[0]
	w.refs[0] = fingerprint(nil, []float64{1}, nil)
	if st := w.loop(ins, testOptions, 0, nil); st.section().Metrics["failed_frac"] != 1 || !strings.Contains(st.firstFailure, "fingerprint") {
		t.Errorf("wrong reference fingerprint: failed %d of %d (%s)", st.failed, st.runs, st.firstFailure)
	}
	w.refs[0] = good
	w.wantRegistered++
	st := w.loop(ins, testOptions, 0, nil)
	if st.section().Metrics["failed_frac"] != 1 || !strings.Contains(st.firstFailure, "tasks_registered") {
		t.Errorf("wrong task-count formula: failed %d of %d (%s)", st.failed, st.runs, st.firstFailure)
	}

	rep := &report{Workloads: []workloadReport{{Name: w.name, EndToEnd: st.section()}}}
	var out bytes.Buffer
	if err := finish(rep, newTracer(), t.TempDir(), true, &out); !errors.Is(err, errFailed) {
		t.Errorf("finish with failed runs returned %v, want errFailed (a non-zero exit)", err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("the JSON line does not say the outputs were wrong: %s", out.String())
	}
}

// TestQuadSharesOneFingerprint: the four systems of headline-quad compute
// bit-identical analytics, equal to the serial reference.
func TestQuadSharesOneFingerprint(t *testing.T) {
	w, err := find(workloads(), "headline-quad")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	out, err := w.run(w.inputs(7, false)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out.prints) != 4 {
		t.Fatalf("quad produced %d fingerprints", len(out.prints))
	}
	for i, p := range out.prints {
		if p != out.prints[0] || p != w.refs[i] {
			t.Errorf("system %s: fingerprint %.12s, first system %.12s, reference %.12s", w.jobs[i].sys, p, out.prints[0], w.refs[i])
		}
	}
	if msg := w.check(out); msg != "" {
		t.Error(msg)
	}
}

// TestCompare: -compare refuses results taken with different settings,
// accepts a result within the bounds and fails on a breach.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h header, p50, jain float64) string {
		rep := report{Header: h, Workloads: []workloadReport{{Name: "tenants-8", EndToEnd: &section{Attempted: 1,
			Metrics: map[string]float64{"run_wall_p50_ms": p50, "jain_fairness": jain}}}}}
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	h := header{Seed: 1, Seconds: 10, GOMAXPROCS: 2}
	base := write("base.json", h, 10, 0.99)
	if err := compareFiles(base, write("near.json", h, 10.9, 0.985), io.Discard); err != nil {
		t.Errorf("within the bounds: %v", err)
	}
	var out bytes.Buffer
	if err := compareFiles(base, write("slow.json", h, 11.1, 0.99), &out); err == nil || !strings.Contains(out.String(), "BREACH") {
		t.Errorf("run_wall_p50_ms 11%% worse: err %v, output %s", err, out.String())
	}
	if err := compareFiles(base, write("unfair.json", h, 10, 0.97), io.Discard); err == nil {
		t.Error("jain_fairness 2% worse passed")
	}
	for name, other := range map[string]header{
		"seed":       {Seed: 2, Seconds: 10, GOMAXPROCS: 2},
		"seconds":    {Seed: 1, Seconds: 5, GOMAXPROCS: 2},
		"gomaxprocs": {Seed: 1, Seconds: 10, GOMAXPROCS: 1},
		"runs":       {Seed: 1, Seconds: 10, GOMAXPROCS: 2, RunsOverride: 2},
	} {
		err := compareFiles(base, write(name+".json", other, 10, 0.99), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "refusing to compare") {
			t.Errorf("different %s: %v", name, err)
		}
	}
}
