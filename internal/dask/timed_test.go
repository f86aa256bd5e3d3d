package dask

import (
	"errors"
	"math"
	"strings"
	"testing"

	"deisago/internal/metrics"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

func TestTimedTaskDynamicDuration(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	// A dynamically-timed task that "takes" 2 virtual seconds.
	g.AddTimed("slow", nil, func(_ []any, start vtime.Time) (any, vtime.Time, error) {
		return 42.0, start + 2, nil
	}, 0)
	// A dependent ordinary task.
	g.AddFn("after", []taskgraph.Key{"slow"}, func(in []any) (any, error) {
		return in[0].(float64) + 1, nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"after"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 43 {
		t.Fatalf("after = %v", vals[0])
	}
	// The dynamic duration must appear in virtual time.
	if cl.Now() < 2 {
		t.Fatalf("client time %v < 2 (dynamic cost not charged)", cl.Now())
	}
}

func TestTimedTaskSerializesOnWorkerCPU(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddTimed("io1", nil, func(_ []any, start vtime.Time) (any, vtime.Time, error) {
		return 1.0, start + 1, nil
	}, 0)
	g.AddTimed("io2", nil, func(_ []any, start vtime.Time) (any, vtime.Time, error) {
		return 2.0, start + 1, nil
	}, 0)
	g.AddFn("sum", []taskgraph.Key{"io1", "io2"}, func(in []any) (any, error) {
		return in[0].(float64) + in[1].(float64), nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"sum"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs); err != nil {
		t.Fatal(err)
	}
	// Both timed tasks run on the single worker: total ≥ 2 s.
	if cl.Now() < 2 {
		t.Fatalf("client time %v < 2; timed tasks did not serialize on one worker", cl.Now())
	}
}

func TestTimedTaskError(t *testing.T) {
	_, cl := testCluster(t, 1)
	boom := errors.New("io failed")
	g := taskgraph.New()
	g.AddTimed("bad", nil, func(_ []any, start vtime.Time) (any, vtime.Time, error) {
		return nil, start, boom
	}, 0)
	futs, err := cl.Submit(g, []taskgraph.Key{"bad"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs); !errors.Is(err, boom) {
		t.Fatalf("gather error = %v, want boom", err)
	}
}

func TestTaskStatesAndDone(t *testing.T) {
	c, cl := testCluster(t, 1)
	if _, err := cl.ExternalFutures([]taskgraph.Key{"ext-1", "ext-2"}); err != nil {
		t.Fatal(err)
	}
	tasks := func(st State) float64 {
		return c.Metrics().Gauge("scheduler", "tasks", metrics.L("state", st.String())).Value()
	}
	if n := tasks(StateExternal); n != 2 {
		t.Fatalf("scheduler/tasks{state=external} = %v, want 2", n)
	}
	g := taskgraph.New()
	g.AddFn("t", nil, func([]any) (any, error) { return 1.0, nil }, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"t"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	if !futs[0].Done() {
		t.Fatal("completed future not Done")
	}
	if tasks(StateMemory) != 1 || tasks(StateExternal) != 2 {
		t.Fatalf("task gauges after run: memory %v, external %v, want 1, 2",
			tasks(StateMemory), tasks(StateExternal))
	}
	ghost := &Future{Key: "ghost", client: cl}
	if ghost.Done() {
		t.Fatal("unknown future reported Done")
	}
}

func TestPanickingTaskBecomesErred(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddFn("boom", nil, func([]any) (any, error) {
		panic("kaboom")
	}, 1e-4)
	g.AddFn("child", []taskgraph.Key{"boom"}, func(in []any) (any, error) {
		return in[0], nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"child"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Gather(futs)
	if err == nil {
		t.Fatal("panicking task did not err")
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not mention panic: %v", err)
	}
	if st, _ := futs[0].State(); st != StateErred {
		t.Fatalf("child state = %v, want erred", st)
	}
}

func TestPersistKeepsResultsDistributed(t *testing.T) {
	c, cl := testCluster(t, 2)
	g := taskgraph.New()
	g.AddFn("p", nil, func([]any) (any, error) { return 5.0, nil }, 1e-4)
	futs, err := cl.Persist(g, []taskgraph.Key{"p"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	// The value lives on a worker, not the client.
	var items int
	for id := range c.workers {
		items += workerStore(c, id).items
	}
	if items != 1 {
		t.Fatalf("store items = %d, want 1", items)
	}
	if c.sched.cpu.Busy() <= 0 {
		t.Fatal("scheduler busy time not recorded")
	}
	for id, w := range c.workers {
		if tasksExecuted(c, id) > 0 && w.cpu.Busy() <= 0 {
			t.Fatal("executing worker has no busy time")
		}
	}
}

func TestTracing(t *testing.T) {
	c, cl := testCluster(t, 2)
	c.EnableTracing()
	g := taskgraph.New()
	g.AddFn("t1", nil, func([]any) (any, error) { return 1.0, nil }, 1e-3)
	g.AddFn("t2", []taskgraph.Key{"t1"}, func(in []any) (any, error) {
		return in[0].(float64) + 1, nil
	}, 2e-3)
	g.AddFn("bad", nil, func([]any) (any, error) { return nil, errors.New("x") }, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"t2", "bad"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait([]*Future{futs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait([]*Future{futs[1]}); err == nil {
		t.Fatal("bad task did not err")
	}
	events := c.TraceEvents()
	if len(events) < 3 {
		t.Fatalf("trace has %d events, want >= 3", len(events))
	}
	byKey := map[taskgraph.Key]TraceEvent{}
	for _, e := range events {
		byKey[e.Key] = e
	}
	t1, t2 := byKey["t1"], byKey["t2"]
	if t1.End-t1.Start < 1e-3 {
		t.Fatalf("t1 span too short: %+v", t1)
	}
	if t2.Start < t1.End {
		t.Fatalf("t2 started (%v) before its dependency finished (%v)", t2.Start, t1.End)
	}
	if !byKey["bad"].Erred {
		t.Fatal("erred task not marked in trace")
	}
	var buf strings.Builder
	if err := WriteChromeTrace(&buf, c.TraceEvents(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"t2"`) || !strings.Contains(out, `"ph":"X"`) {
		t.Fatalf("chrome trace malformed: %s", out)
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddFn("x", nil, func([]any) (any, error) { return 1.0, nil }, 1e-4)
	futs, _ := cl.Submit(g, []taskgraph.Key{"x"})
	cl.Wait(futs)
	if len(c.TraceEvents()) != 0 {
		t.Fatal("tracing recorded events while disabled")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	cfg := netsim.Config{
		NodesPerSwitch: 8, LinkBandwidth: 1e9, PruneFactor: 2,
		HopLatency: 1e-6, SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, 3)
	c := NewCluster(fabric, DefaultConfig(), 0, []netsim.NodeID{2})
	cl := c.NewClient("c", 1, math.Inf(1))
	g := taskgraph.New()
	g.AddFn("x", nil, func([]any) (any, error) { return 1.0, nil }, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // must not panic or hang
}
