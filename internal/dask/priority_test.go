package dask

import (
	"sync"
	"testing"

	"deisago/internal/taskgraph"
)

func TestPriorityOrdersWorkerQueue(t *testing.T) {
	// One worker, many queued tasks; a high-priority (low value) task
	// submitted among low-priority ones must run before queue-mates.
	_, cl := testCluster(t, 1)
	var mu sync.Mutex
	var order []string
	record := func(name string) (any, error) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		return 0.0, nil
	}
	g := taskgraph.New()
	var targets []taskgraph.Key
	for _, spec := range []struct {
		key      string
		priority int
	}{
		{"low-1", 10}, {"low-2", 10}, {"urgent", -5}, {"low-3", 10},
	} {
		key := taskgraph.Key(spec.key)
		name := spec.key
		task := g.AddFn(key, nil, func([]any) (any, error) { return record(name) }, 1e-3)
		task.Priority = spec.priority
		targets = append(targets, key)
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	// The first task may already be executing when "urgent" arrives, but
	// urgent must not run last, and must precede at least two "low" tasks.
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if pos["urgent"] > 1 {
		t.Fatalf("urgent ran at position %d: %v", pos["urgent"], order)
	}
}

func TestReleaseFreesMemory(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddFn("r", nil, func([]any) (any, error) { return 7.0, nil }, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"r"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	if items := workerStore(c, 0).items; items != 1 {
		t.Fatalf("store items before release = %d", items)
	}
	if err := cl.Release(futs); err != nil {
		t.Fatal(err)
	}
	if items := workerStore(c, 0).items; items != 0 {
		t.Fatalf("store items after release = %d", items)
	}
	if _, ok := c.sched.taskState("r"); ok {
		t.Fatal("scheduler still tracks released key")
	}
	// The key is reusable after release.
	g2 := taskgraph.New()
	g2.AddFn("r", nil, func([]any) (any, error) { return 8.0, nil }, 1e-4)
	futs2, err := cl.Submit(g2, []taskgraph.Key{"r"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 8 {
		t.Fatalf("reused key = %v", vals[0])
	}
}

func TestReleaseRefusedWithDependents(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddFn("base", nil, func([]any) (any, error) { return 1.0, nil }, 1e-4)
	g.AddFn("top", []taskgraph.Key{"base"}, func(in []any) (any, error) { return in[0], nil }, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"top"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	base := &Future{Key: "base", client: cl}
	if err := cl.Release([]*Future{base}); err == nil {
		t.Fatal("released a key with registered dependents")
	}
	// Releasing top first, then base, succeeds.
	if err := cl.Release(futs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Release([]*Future{base}); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseUnknownKeyIgnored(t *testing.T) {
	_, cl := testCluster(t, 1)
	ghost := &Future{Key: "ghost", client: cl}
	if err := cl.Release([]*Future{ghost}); err != nil {
		t.Fatalf("release of unknown key errored: %v", err)
	}
}
