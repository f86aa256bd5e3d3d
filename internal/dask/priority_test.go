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

// gatedTask adds a task whose body signals started, then blocks until
// the returned open func is called (also called at test cleanup).
func gatedTask(t *testing.T, g *taskgraph.Graph, key taskgraph.Key, value any) (started chan struct{}, open func()) {
	started, gate := make(chan struct{}), make(chan struct{})
	var once sync.Once
	open = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(open)
	g.AddFn(key, nil, func([]any) (any, error) {
		close(started)
		<-gate
		return value, nil
	}, 1e-4)
	return started, open
}

// TestReleasedResultNeverResident releases a task while its body runs.
// The scheduler rejects the completion report, so the result must never
// enter the worker's store: its memory gauge never reaches the result's
// 8000 bytes.
func TestReleasedResultNeverResident(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	started, open := gatedTask(t, g, "big", make([]float64, 1000))
	futs, err := cl.Submit(g, []taskgraph.Key{"big"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := cl.Release(futs); err != nil {
		t.Fatal(err)
	}
	open()
	// The worker runs one task at a time, so once a later task finishes,
	// the released task's report has been handled.
	g2 := taskgraph.New()
	constTask(g2, "after", 1)
	after, err := cl.Submit(g2, []taskgraph.Key{"after"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(after); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.workers[0].mMem.Series() {
		if s.V >= 8000 {
			t.Fatalf("memory gauge reached %v B at t=%v for a released result", s.V, s.T)
		}
	}
	if v := workerStore(c, 0); v.items != 1 {
		t.Fatalf("store holds %d items, want only the later task's", v.items)
	}
}

// TestReleaseQueuedTaskThenDependency releases a task still queued on
// its worker, then its dependency. When the worker reaches the stale
// assignment its input is gone; it must drop the assignment rather than
// fail, and go on serving later tasks.
func TestReleaseQueuedTaskThenDependency(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	started, open := gatedTask(t, g, "c", 1.0)
	if _, err := cl.Submit(g, []taskgraph.Key{"c"}); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := cl.Scatter([]ScatterItem{{Key: "a", Value: 2.0}}, false, 0); err != nil {
		t.Fatal(err)
	}
	g2 := taskgraph.New()
	sumTask(g2, "b", "a")
	b, err := cl.Submit(g2, []taskgraph.Key{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := b[0].State(); st != StateProcessing {
		t.Fatalf("b is %v, want queued on the worker (processing)", st)
	}
	if err := cl.Release(b); err != nil {
		t.Fatal(err)
	}
	if err := cl.Release([]*Future{{Key: "a", client: cl}}); err != nil {
		t.Fatal(err)
	}
	open()
	g3 := taskgraph.New()
	constTask(g3, "after", 3)
	after, err := cl.Submit(g3, []taskgraph.Key{"after"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(after)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 3 {
		t.Fatalf("after = %v, want 3", vals[0])
	}
	if n := tasksExecuted(c, 0); n != 2 {
		t.Fatalf("worker executed %d tasks, want 2 (c and after; b dropped)", n)
	}
}

func TestReleaseUnknownKeyIgnored(t *testing.T) {
	_, cl := testCluster(t, 1)
	ghost := &Future{Key: "ghost", client: cl}
	if err := cl.Release([]*Future{ghost}); err != nil {
		t.Fatalf("release of unknown key errored: %v", err)
	}
}
