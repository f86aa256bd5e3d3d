// Command bench is the repository's one benchmark: five whole-run
// workloads timed end to end in host time and checked in virtual time, and
// a separate traced pass that probes each layer. See README.md.
//
//	bash bench/run.sh -seed 1                       every workload, timed loops then traced passes
//	bash bench/run.sh -workload pipe-floor -trace 0 one workload's timed loop, result as a JSON line
//	bash bench/run.sh -compare a.json b.json        hold b to a's numbers and the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// header says what produced a result file; -compare refuses files whose
// settings differ.
type header struct {
	Commit       string         `json:"commit"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	RunsOverride int            `json:"runs_override"`
	NProc        int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	CPUModel     string         `json:"cpu_model"`
	TimedRuns    map[string]int `json:"timed_runs"` // per workload, as the run length allowed
}

type workloadReport struct {
	Name     string   `json:"name"`
	Why      string   `json:"why"`
	EndToEnd *section `json:"end_to_end,omitempty"`
	PerLayer *section `json:"per_layer,omitempty"`
}

type report struct {
	Header    header           `json:"header"`
	Workloads []workloadReport `json:"workloads"`
}

// errFailed is returned when a run failed or produced wrong outputs.
var errFailed = errors.New("bench: runs failed the output check")

func main() {
	if err := execute(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func execute(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all five)")
	seed := fs.Int64("seed", 1, "workload seed: run i uses seed+i%16")
	seconds := fs.Float64("seconds", 10, "length of each timed loop and each traced pass")
	trace := fs.Int("trace", -1, "0: timed loops only; 1: traced passes only; with -workload, the result is also printed as one JSON line")
	runs := fs.Int("runs", 0, "tests only: exactly this many runs per loop and one batch per probe")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result.json and trace.json")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("usage: -compare base.json new.json")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 0 || *trace < -1 || *trace > 1 {
		return fmt.Errorf("bad arguments %q (see -h)", args)
	}
	selected := workloads()
	if *name != "" {
		w, err := find(selected, *name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	rep, tr, err := runBenchmark(selected, options{seed: *seed, seconds: *seconds, runs: *runs}, *trace, stdout)
	if err != nil {
		return err
	}
	return finish(rep, tr, *out, *name != "" && *trace >= 0, stdout)
}

// finish writes the result and the trace, prints the driver's JSON line
// when one workload ran one of the two passes, and fails if any run did.
func finish(rep *report, tr *tracer, dir string, contractLine bool, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if len(tr.spans) > 0 {
		if err := tr.writeChrome(filepath.Join(dir, "trace.json")); err != nil {
			return err
		}
	}
	if contractLine {
		if err := printContractLine(stdout, rep.Workloads[0]); err != nil {
			return err
		}
	}
	for _, w := range rep.Workloads {
		for _, sec := range []*section{w.EndToEnd, w.PerLayer} {
			if sec != nil && sec.Failed > 0 {
				return errFailed
			}
		}
	}
	return nil
}

// runBenchmark runs the timed loops of every selected workload, then their
// traced passes (trace -1), or only one of the two (0, 1).
func runBenchmark(selected []*workload, opt options, trace int, stdout io.Writer) (*report, *tracer, error) {
	rep := &report{Header: header{Commit: commit(), Seed: opt.seed, Seconds: opt.seconds, RunsOverride: opt.runs,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: cpuModel(), TimedRuns: map[string]int{}}}
	fmt.Fprintf(stdout, "bench: commit %s, seed %d, %gs per loop, nproc %d, GOMAXPROCS %d, %s, %s\n",
		rep.Header.Commit, opt.seed, opt.seconds, rep.Header.NProc, rep.Header.GOMAXPROCS, rep.Header.GoVersion, rep.Header.CPUModel)
	for _, w := range selected {
		rep.Workloads = append(rep.Workloads, workloadReport{Name: w.name, Why: w.why})
	}
	tr := newTracer()
	if trace != 1 {
		for i, w := range selected {
			sec, err := measureEndToEnd(w, opt)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Workloads[i].EndToEnd = sec
			rep.Header.TimedRuns[w.name] = sec.Attempted
			printSection(stdout, w.name+": end to end, observers off, closed loop of one client", sec, defsOf(gated, specific))
		}
	}
	if trace != 0 {
		for i, w := range selected {
			sec, err := measureLayers(w, opt, tr)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Workloads[i].PerLayer = sec
			printSection(stdout, w.name+": per layer, traced pass (worker host time sits inside sched.drive_*)", sec, defsOf(layer))
		}
	}
	return rep, tr, nil
}

// paperValues are the paper's headline ratios, printed beside ours.
var paperValues = map[string]string{
	"ratio_sim_deisa1_over_deisa3":             "paper: up to x7",
	"ratio_analytics_deisa1_over_deisa3":       "paper: up to x3",
	"ratio_cost_posthoc_over_deisa3":           "paper: x18",
	"ratio_analytics_cost_posthoc_over_deisa3": "paper: x3.5",
}

func printSection(out io.Writer, title string, sec *section, defs []metricDef) {
	fmt.Fprintf(out, "\n%s — %d runs, %d failed\n", title, sec.Attempted, sec.Failed)
	if sec.FirstFailure != "" {
		fmt.Fprintf(out, "  FIRST FAILURE: %s\n", sec.FirstFailure)
	}
	for _, d := range defs {
		note := ""
		if d.kind != layer {
			note = fmt.Sprintf("%s is better, bound %g", d.better, d.bound)
		}
		if d.name == "harness.run_wall_tail_ms" {
			note = sec.Tail
		}
		if p, ok := paperValues[d.name]; ok {
			note += "; " + p
		}
		fmt.Fprintf(out, "  %-42s %16.6g %-6s %s\n", d.name, sec.Metrics[d.name], d.unit, note)
	}
}

// printContractLine prints one workload's result as the single JSON line
// BENCHMARK.json's driver reads: the gated metrics after a timed loop, the
// per_layer list after a traced pass.
func printContractLine(out io.Writer, w workloadReport) error {
	sec, defs := w.EndToEnd, defsOf(gated)
	if sec == nil {
		sec, defs = w.PerLayer, defsOf(specific, layer)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{sec.Failed == 0, sec.Attempted, sec.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{sec.Metrics[d.name], d.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}

// commit names the source: git's HEAD where there is a repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown cpu"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown cpu"
}
