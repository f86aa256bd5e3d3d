package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// hostTimed are the end-to-end metrics whose run-to-run noise
// harness.round_spread_frac measures.
var hostTimed = map[string]bool{"setup_s": true, "run_wall_p50_ms": true, "tasks_per_s": true}

// compareFiles holds the new result to the base: every end-to-end metric
// of every workload may be worse by at most its bound. It prints one row
// per metric and workload and returns an error on a breach.
func compareFiles(basePath, newPath string, out io.Writer) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	b, c := base.Header, cur.Header
	if b.GOMAXPROCS != c.GOMAXPROCS || b.Seed != c.Seed || b.Seconds != c.Seconds || b.RunsOverride != c.RunsOverride {
		return fmt.Errorf("bench: refusing to compare: %s has GOMAXPROCS %d, seed %d, %gs loops, -runs %d; %s has GOMAXPROCS %d, seed %d, %gs loops, -runs %d — run both with the same settings",
			basePath, b.GOMAXPROCS, b.Seed, b.Seconds, b.RunsOverride, newPath, c.GOMAXPROCS, c.Seed, c.Seconds, c.RunsOverride)
	}
	fmt.Fprintf(out, "base %s (commit %s, %s)\nnew  %s (commit %s, %s)\n", basePath, b.Commit, b.CPUModel, newPath, c.Commit, c.CPUModel)
	byName := map[string]workloadReport{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	breaches := 0
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			return fmt.Errorf("bench: %s has no workload %s", newPath, bw.Name)
		}
		fmt.Fprintf(out, "\n%s\n  %-42s %14s %14s %9s %7s  %s\n", bw.Name, "metric", "base", "new", "worse by", "bound", "verdict")
		if bw.EndToEnd != nil && cw.EndToEnd != nil {
			spread := 0.0
			for _, sec := range []*section{bw.PerLayer, cw.PerLayer} {
				if sec != nil {
					spread = max(spread, sec.Metrics["harness.round_spread_frac"])
				}
			}
			for _, d := range defsOf(gated, specific) {
				old, now := bw.EndToEnd.Metrics[d.name], cw.EndToEnd.Metrics[d.name]
				if old == 0 && now == 0 && d.name != "failed_frac" {
					continue // the workload has no such output
				}
				worse := worseBy(d, old, now)
				verdict := "ok"
				switch {
				case worse > d.bound:
					verdict = "BREACH"
					breaches++
				case hostTimed[d.name] && spread > d.bound:
					verdict = fmt.Sprintf("unresolved (round spread %.3f)", spread)
				}
				fmt.Fprintf(out, "  %-42s %14.6g %14.6g %+9.4f %7.3g  %s\n", d.name, old, now, worse, d.bound, verdict)
			}
		}
		if bw.PerLayer != nil && cw.PerLayer != nil {
			for _, d := range defsOf(layer) {
				old, now := bw.PerLayer.Metrics[d.name], cw.PerLayer.Metrics[d.name]
				fmt.Fprintf(out, "  %-42s %14.6g %14.6g %+9.4f %7s\n", d.name, old, now, worseBy(d, old, now), "-")
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("bench: %d end-to-end metrics are worse than the base by more than their bound", breaches)
	}
	return nil
}

// worseBy is the share of the base value by which now is worse (negative
// when better); absolute where the base is zero.
func worseBy(d metricDef, old, now float64) float64 {
	delta := now - old
	if d.better == "higher" {
		delta = -delta
	}
	if old == 0 {
		return delta
	}
	return delta / old
}
