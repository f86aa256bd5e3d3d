package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deisago/internal/metrics"
)

func TestParseSystem(t *testing.T) {
	cases := map[string]bool{
		"deisa3": true, "DEISA1": true, "posthoc-new": true, "dask": true,
		"posthoc-old": true, "deisa": true, "nonsense": false, "": false,
	}
	for in, ok := range cases {
		_, err := parseSystem(in)
		if ok && err != nil {
			t.Fatalf("parseSystem(%q) errored: %v", in, err)
		}
		if !ok && err == nil {
			t.Fatalf("parseSystem(%q) accepted", in)
		}
	}
}

// TestRunSystemWritesMetrics drives the single-run mode end to end and
// checks the exported snapshot counts the run's external tasks.
func TestRunSystemWritesMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-system", "deisa3", "-ranks", "2", "-workers", "1", "-steps", "2",
		"-block-mib", "1", "-metrics-out", path}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("dask/external_created"); got <= 0 {
		t.Fatalf("dask/external_created = %d in %s", got, raw)
	}
}

func TestRunUnknownSystem(t *testing.T) {
	if err := run([]string{"-system", "nonsense"}, io.Discard); err == nil {
		t.Fatal("-system nonsense accepted")
	}
}

// TestRunRejectsBadInput: a command line that is wrong is a usage
// error, reported before any simulation runs.
func TestRunRejectsBadInput(t *testing.T) {
	for name, args := range map[string][]string{
		"weight with trailing garbage": {"-quick", "-jobs", "2", "-tenant-weights", "1,2x"},
		"negative parallel":            {"-quick", "-parallel", "-3", "-fig", "meta"},
		"unknown figure after another": {"-quick", "-headline", "-fig", "9"},
		"negative jobs":                {"-quick", "-jobs", "-1"},
		"negative jobs cap":            {"-quick", "-jobs", "2", "-jobs-max-concurrent", "-2"},
		"non-finite weight":            {"-quick", "-jobs", "2", "-tenant-weights", "1,NaN"},
		"jobs with chaos plan":         {"-quick", "-jobs", "3", "-chaos-plan", "killjob:job1@2;delay:0/1:0.1"},
		"jobs with chaos seed":         {"-quick", "-jobs", "2", "-chaos-seed", "7"},
	} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(args, &out); !errors.Is(err, errUsage) {
				t.Fatalf("%v: err = %v, want a usage error", args, err)
			}
			if out.Len() > 0 {
				t.Fatalf("%v ran before rejecting its input:\n%s", args, out.String())
			}
		})
	}
}

// TestAllHeadlinePrintsOnce: -headline beside -all selects the same
// view, so the ratios print once.
func TestAllHeadlinePrintsOnce(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-all", "-headline"}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "Headline ratios"); n != 1 {
		t.Fatalf("headline printed %d times", n)
	}
}
