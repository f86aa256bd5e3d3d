// Package taskgraph defines the task-graph representation shared by the
// Dask-like runtime: keyed tasks with dependencies, topological ordering,
// and graph optimizations (cull). It corresponds to dask.core /
// dask.highlevelgraph in the original system.
package taskgraph

import (
	"fmt"
	"sort"

	"deisago/internal/vtime"
)

// Key identifies a task or a piece of data in the distributed cluster.
type Key string

// Fn is a task body. It receives the dependency results in the same order
// as Task.Deps.
type Fn func(deps []any) (any, error)

// TimedFn is a task body with dynamic virtual-time cost: it receives the
// execution start time and returns, along with the value, the virtual
// time at which execution completes. It is used for tasks whose duration
// depends on contended resources (e.g. reads from the parallel file
// system).
type TimedFn func(deps []any, start vtime.Time) (any, vtime.Time, error)

// Task is one node of a graph.
type Task struct {
	Key  Key
	Deps []Key
	// Fn computes the task. A nil Fn with no Deps denotes a pure data or
	// external task whose value is supplied from outside the graph.
	Fn Fn
	// Timed, if non-nil, replaces Fn with a dynamically-timed body; Cost
	// is then a fixed additional charge on top of the dynamic duration.
	Timed TimedFn
	// Cost is the modelled execution time in virtual seconds.
	Cost vtime.Dur
	// OutBytes, when positive, overrides the modelled size of the task's
	// result for transfer-cost purposes. Harness code uses it to model
	// paper-scale data while computing on small arrays.
	OutBytes int64
	// Priority breaks ties in scheduling; lower runs earlier.
	Priority int
}

// IsData reports whether the task is a pure data placeholder (no body).
func (t *Task) IsData() bool { return t.Fn == nil && t.Timed == nil }

// AddTimed is a convenience wrapper for dynamically-timed tasks.
func (g *Graph) AddTimed(key Key, deps []Key, fn TimedFn, cost vtime.Dur) *Task {
	t := &Task{Key: key, Deps: deps, Timed: fn, Cost: cost}
	g.Add(t)
	return t
}

// Graph is a set of tasks keyed by Key.
type Graph struct {
	tasks map[Key]*Task
	// sorted caches the Keys() order. nil means dirty; the length guard
	// in Keys additionally catches direct map writes (Cull).
	// Callers must treat the returned slice as read-only.
	sorted []Key
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{tasks: make(map[Key]*Task)}
}

// Add inserts a task; it panics on duplicate keys, which always indicate
// a graph-construction bug.
func (g *Graph) Add(t *Task) {
	if t == nil || t.Key == "" {
		panic("taskgraph: task must be non-nil with a non-empty key")
	}
	if _, dup := g.tasks[t.Key]; dup {
		panic(fmt.Sprintf("taskgraph: duplicate key %q", t.Key))
	}
	g.tasks[t.Key] = t
	g.sorted = nil
}

// AddFn is a convenience wrapper building and adding a Task.
func (g *Graph) AddFn(key Key, deps []Key, fn Fn, cost vtime.Dur) *Task {
	t := &Task{Key: key, Deps: deps, Fn: fn, Cost: cost}
	g.Add(t)
	return t
}

// Get returns the task for a key, or nil.
func (g *Graph) Get(k Key) *Task { return g.tasks[k] }

// Has reports whether the graph contains a key.
func (g *Graph) Has(k Key) bool { _, ok := g.tasks[k]; return ok }

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.tasks) }

// Keys returns all keys in sorted order (deterministic iteration). The
// order is computed once and cached until the graph changes; callers
// share the cached slice and must not mutate it. Repeat calls on an
// unchanged graph allocate nothing.
func (g *Graph) Keys() []Key {
	if g.sorted != nil && len(g.sorted) == len(g.tasks) {
		return g.sorted
	}
	out := make([]Key, 0, len(g.tasks))
	for k := range g.tasks {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	g.sorted = out
	return out
}

// Walk calls yield for every task in sorted key order, stopping early if
// yield returns false. It reuses the Keys cache, so iterating an
// unchanged graph allocates nothing.
func (g *Graph) Walk(yield func(Key, *Task) bool) {
	for _, k := range g.Keys() {
		if !yield(k, g.tasks[k]) {
			return
		}
	}
}

// TopoSort returns the keys reachable from targets in a valid execution
// order (dependencies first). Keys in externals are treated as already
// satisfied and are not emitted. It returns an error on cycles or missing
// dependencies.
func (g *Graph) TopoSort(targets []Key, externals map[Key]bool) ([]Key, error) {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	color := make(map[Key]int, len(g.tasks))
	var order []Key
	var visit func(k Key) error
	visit = func(k Key) error {
		if externals[k] && !g.Has(k) {
			return nil
		}
		switch color[k] {
		case black:
			return nil
		case gray:
			return fmt.Errorf("taskgraph: cycle through key %q", k)
		}
		t := g.Get(k)
		if t == nil {
			return fmt.Errorf("taskgraph: missing key %q", k)
		}
		color[k] = gray
		for _, d := range t.Deps {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[k] = black
		order = append(order, k)
		return nil
	}
	for _, k := range targets {
		if err := visit(k); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Cull returns the subgraph containing exactly the tasks reachable from
// targets — the standard Dask optimization that drops unneeded work.
// External keys are permitted as absent dependencies.
func (g *Graph) Cull(targets []Key, externals map[Key]bool) (*Graph, error) {
	order, err := g.TopoSort(targets, externals)
	if err != nil {
		return nil, err
	}
	out := New()
	for _, k := range order {
		out.tasks[k] = g.tasks[k]
	}
	return out, nil
}

// Dependents returns the reverse adjacency: for each key, the keys that
// depend on it (including dependencies satisfied externally).
func (g *Graph) Dependents() map[Key][]Key {
	out := make(map[Key][]Key)
	for _, k := range g.Keys() {
		for _, d := range g.tasks[k].Deps {
			out[d] = append(out[d], k)
		}
	}
	return out
}
