package simtest

import (
	"fmt"
	"strings"
)

// Reproducer DSL: a shrunk failure is emitted as one semicolon-joined
// line that fully determines a pipeline run —
//
//	spec:<ranks>/<workers>/<steps>/<blockbytes>/<memlimit>;
//	<chaos clauses...>;<tb clauses...>
//
// The spec clause pins the scenario shape; chaos clauses are the
// fault-plan DSL of package chaos (kill:, degrade:, drop:, delay:,
// memlimit:); tb clauses pin tie-break decisions (see FormatDecision).
// ParseRepro routes each clause by prefix, so the three sublanguages
// mix freely in one line and a reproducer pastes straight back into a
// test or the shrinker's replay check.

// FormatRepro renders a spec as a one-line reproducer. The spec clause
// has no room for tenants, so a spec with Jobs is an error.
func FormatRepro(sp Spec) (string, error) {
	if len(sp.Jobs) > 0 {
		return "", fmt.Errorf("simtest: a reproducer line carries one job, and the spec has %d", len(sp.Jobs))
	}
	parts := []string{fmt.Sprintf("spec:%d/%d/%d/%d/%d",
		sp.Ranks, sp.Workers, sp.Timesteps, sp.BlockBytes, sp.MemLimit)}
	parts = append(parts, splitClauses(sp.Plan)...)
	parts = append(parts, splitClauses(sp.Overrides)...)
	return strings.Join(parts, ";"), nil
}

// ParseRepro parses a reproducer line back into a runnable spec.
func ParseRepro(line string) (Spec, error) {
	var sp Spec
	var plan, tbs []string
	sawSpec := false
	for _, clause := range splitClauses(line) {
		switch {
		case strings.HasPrefix(clause, "spec:"):
			if sawSpec {
				return sp, fmt.Errorf("simtest: repro %q: duplicate spec clause", line)
			}
			n, err := fmt.Sscanf(clause, "spec:%d/%d/%d/%d/%d",
				&sp.Ranks, &sp.Workers, &sp.Timesteps, &sp.BlockBytes, &sp.MemLimit)
			if err != nil || n != 5 {
				return sp, fmt.Errorf("simtest: repro clause %q: want spec:R/W/T/B/M", clause)
			}
			sawSpec = true
		case strings.HasPrefix(clause, "tb:"):
			if _, _, err := ParseDecision(clause); err != nil {
				return sp, err
			}
			tbs = append(tbs, clause)
		default:
			plan = append(plan, clause)
		}
	}
	if !sawSpec {
		return sp, fmt.Errorf("simtest: repro %q: missing spec clause", line)
	}
	sp.Plan = strings.Join(plan, ";")
	sp.Overrides = strings.Join(tbs, ";")
	// Validate the chaos clauses eagerly so a bad reproducer fails at
	// parse time, not replay time.
	if _, err := sp.Config(); err != nil {
		return sp, err
	}
	return sp, nil
}

// ReplayRepro parses and runs a reproducer line, returning whether it
// still fails and the failure text. run == nil uses the in-process
// pipeline.
func ReplayRepro(line string, run Runner) (bool, string, error) {
	sp, err := ParseRepro(line)
	if err != nil {
		return false, "", err
	}
	fails, msg := FailsOnError(run)(sp)
	return fails, msg, nil
}
