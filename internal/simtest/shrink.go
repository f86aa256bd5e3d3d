package simtest

import (
	"fmt"
	"strings"
)

// Shrinker: delta-debugs a failing (chaos plan, schedule) pair down to
// a minimal reproducer. Both dimensions are lists of clauses — fault
// events and forced tie-breaks — so the classic ddmin algorithm applies
// to each; the shrinker alternates dimensions until neither loses a
// clause, then emits the survivor as a one-line runnable DSL string
// (see FormatRepro).

// Pred decides whether a spec still fails, returning the failure text
// when it does. It must be deterministic: the same spec must fail (or
// pass) on every call, which the pipeline guarantees for pinned
// schedules.
type Pred func(Spec) (bool, string)

// FailsOnError adapts a Runner into the standard predicate: the spec
// fails iff the runner errors (auditor panic under a subprocess runner,
// reference-model rejection, harness error).
func FailsOnError(run Runner) Pred {
	if run == nil {
		run = RunPipeline
	}
	return func(sp Spec) (bool, string) {
		_, err := run(sp)
		if err != nil {
			return true, err.Error()
		}
		return false, ""
	}
}

// ShrinkResult is a minimised reproducer.
type ShrinkResult struct {
	Spec    Spec   // minimal failing spec (plan and overrides shrunk)
	Repro   string // the spec as a one-line runnable DSL
	Failure string // failure text of the minimal spec
	Runs    int    // predicate evaluations spent shrinking
}

// Shrink minimises a failing spec. The schedule must already be pinned:
// sp.Overrides holds the explicit tie-break clauses of the failing
// schedule (possibly empty — then only the plan shrinks). Returns an
// error if the input spec does not fail, since there is nothing to
// shrink, or if no reproducer line can carry it (FormatRepro).
func Shrink(sp Spec, fails Pred) (*ShrinkResult, error) {
	if _, err := FormatRepro(sp); err != nil {
		return nil, err
	}
	runs := 0
	check := func(s Spec) (bool, string) {
		runs++
		return fails(s)
	}
	ok, failure := check(sp)
	if !ok {
		return nil, fmt.Errorf("simtest: spec to shrink does not fail")
	}

	planClauses := splitClauses(sp.Plan)
	tbEntries, err := ParseOverrides(sp.Overrides)
	if err != nil {
		return nil, err
	}
	entries := tbEntries.Entries()

	build := func(plan []string, tbs []OverrideEntry) Spec {
		s := sp
		s.Plan = strings.Join(plan, ";")
		s.Overrides = FromEntries(tbs).Format()
		return s
	}

	for {
		shrunk := false
		planClauses = ddmin(planClauses, func(cs []string) bool {
			ok, msg := check(build(cs, entries))
			if ok {
				failure = msg
			}
			return ok
		}, &shrunk)
		entries = ddmin(entries, func(es []OverrideEntry) bool {
			ok, msg := check(build(planClauses, es))
			if ok {
				failure = msg
			}
			return ok
		}, &shrunk)
		if !shrunk {
			break
		}
	}

	min := build(planClauses, entries)
	repro, _ := FormatRepro(min) // min has sp's Jobs, checked on entry
	return &ShrinkResult{
		Spec:    min,
		Repro:   repro,
		Failure: failure,
		Runs:    runs,
	}, nil
}

// splitClauses splits a semicolon-joined DSL string into clauses.
func splitClauses(s string) []string {
	var out []string
	for _, c := range strings.Split(s, ";") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}

// ddmin is Zeller's delta-debugging minimisation: given a failing list,
// find a 1-minimal sublist that still fails. fails must be true for the
// input list. Sets *shrunk if the result is shorter than the input.
func ddmin[T any](items []T, fails func([]T) bool, shrunk *bool) []T {
	if len(items) == 0 {
		return items
	}
	// Fast path: the failure may not need this dimension at all.
	if fails(nil) {
		*shrunk = true
		return nil
	}
	n := 2
	for len(items) >= 2 {
		chunk := (len(items) + n - 1) / n
		reduced := false
		// Try each subset.
		for i := 0; i < len(items); i += chunk {
			end := i + chunk
			if end > len(items) {
				end = len(items)
			}
			sub := items[i:end]
			if len(sub) < len(items) && fails(sub) {
				items = append([]T(nil), sub...)
				n = 2
				reduced = true
				*shrunk = true
				break
			}
		}
		if reduced {
			continue
		}
		// Try each complement.
		for i := 0; i < len(items); i += chunk {
			end := i + chunk
			if end > len(items) {
				end = len(items)
			}
			comp := append(append([]T(nil), items[:i]...), items[end:]...)
			if len(comp) < len(items) && fails(comp) {
				items = comp
				if n > 2 {
					n--
				}
				reduced = true
				*shrunk = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(items) {
			break
		}
		n *= 2
		if n > len(items) {
			n = len(items)
		}
	}
	return items
}
