package main

// Layer taskgraph = internal/taskgraph + key formatting. Symbols touched:
//
//	taskgraph.New, (*Graph).AddFn, taskgraph.Key, Task.Priority, Task.OutBytes
//	core.VirtualArray, (*VirtualArray).BlockKey

import (
	"fmt"

	"deisago/internal/core"
	"deisago/internal/taskgraph"
)

// virtualArray is the deisa array a job publishes (time, X, Y blocks along Y).
func virtualArray(w *workload, j job) *core.VirtualArray {
	return &core.VirtualArray{Name: "G_temp", Namespace: j.name,
		Size:    []int{j.steps, w.realX, w.realY * j.ranks},
		Subsize: []int{1, w.realX, w.realY}, TimeDim: 0}
}

// analyticsGraph is one job's ahead-of-time analytics graph with empty
// task bodies: per step, a fold and a sketch per block feed one fit that
// chains on the previous step's; three extraction tasks hang off the last.
type analyticsGraph struct {
	g         *taskgraph.Graph
	externals []taskgraph.Key // the blocks, step-major
	targets   []taskgraph.Key
}

func nop([]any) (any, error) { return nil, nil }

func buildGraph(w *workload, j job) analyticsGraph {
	prefix := ""
	if j.name != "" {
		prefix = j.name + "/"
	}
	va := virtualArray(w, j)
	a := analyticsGraph{g: taskgraph.New()}
	var prev taskgraph.Key
	for t := 0; t < j.steps; t++ {
		deps := make([]taskgraph.Key, 0, j.ranks+1)
		if prev != "" {
			deps = append(deps, prev)
		}
		for b := 0; b < j.ranks; b++ {
			block := va.BlockKey([]int{t, 0, b})
			a.externals = append(a.externals, block)
			suffix := fmt.Sprintf("t%03d-b%04d", t, b)
			fold := taskgraph.Key(prefix + "fold-" + suffix)
			a.g.AddFn(fold, []taskgraph.Key{block}, nop, 1e-4).Priority = 1
			sketch := taskgraph.Key(prefix + "sketch-" + suffix)
			task := a.g.AddFn(sketch, []taskgraph.Key{fold}, nop, 1e-4)
			task.Priority, task.OutBytes = 1, 1<<10
			deps = append(deps, sketch)
		}
		prev = taskgraph.Key(fmt.Sprintf("%sipca-state-%03d", prefix, t))
		a.g.AddFn(prev, deps, nop, 1e-4).Priority = -1
	}
	for _, part := range []string{"components", "singular-values", "explained-variance"} {
		key := taskgraph.Key(prefix + "ipca-" + part)
		a.g.AddFn(key, []taskgraph.Key{prev}, nop, 1e-6)
		a.targets = append(a.targets, key)
	}
	return a
}

// buildGraphs builds the graph of every graph job and counts the tasks.
func buildGraphs(w *workload) ([]analyticsGraph, int) {
	var graphs []analyticsGraph
	tasks := 0
	for _, j := range w.graphJobs() {
		a := buildGraph(w, j)
		graphs = append(graphs, a)
		tasks += a.g.Len()
	}
	return graphs, tasks
}

// probeTaskgraph: taskgraph.build_ns_per_task.
func probeTaskgraph(p *prober) error {
	_, tasks := buildGraphs(p.w)
	p.timed("taskgraph.build", tasks, func() { buildGraphs(p.w) })
	return nil
}
