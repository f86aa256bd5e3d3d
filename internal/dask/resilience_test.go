package dask

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deisago/internal/taskgraph"
)

func TestKillWorkerRecomputesFromLineage(t *testing.T) {
	c, cl := testCluster(t, 2)
	var aRuns atomic.Int64
	g := taskgraph.New()
	g.AddFn("a", nil, func([]any) (any, error) {
		aRuns.Add(1)
		return 21.0, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	owner, _, _, _, err := c.sched.locate("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(owner, cl.Now()); err != nil {
		t.Fatal(err)
	}
	// The result is gone; the scheduler must have replanned "a" and
	// recomputed it on the surviving worker.
	g2 := taskgraph.New()
	g2.AddFn("b", []taskgraph.Key{"a"}, func(in []any) (any, error) {
		return in[0].(float64) * 2, nil
	}, 1e-4)
	futs2, err := cl.Submit(g2, []taskgraph.Key{"b"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 42 {
		t.Fatalf("b = %v, want 42", vals[0])
	}
	if aRuns.Load() != 2 {
		t.Fatalf("a executed %d times, want 2 (original + recompute)", aRuns.Load())
	}
	newOwner, _, _, _, err := c.sched.locate("a")
	if err != nil {
		t.Fatal(err)
	}
	if newOwner == owner {
		t.Fatal("recomputed result placed on the dead worker")
	}
}

func TestKillWorkerLosesScatteredData(t *testing.T) {
	c, cl := testCluster(t, 2)
	if err := cl.Scatter([]ScatterItem{{Key: "d", Value: 1.0}}, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(0, cl.Now()); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("use", []taskgraph.Key{"d"}, func(in []any) (any, error) { return in[0], nil }, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"use"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs); err == nil {
		t.Fatal("lost scattered data should err dependents")
	}
}

func TestKillWorkerExternalDataRepublished(t *testing.T) {
	// External data lost with a worker returns to the external state; the
	// bridge republished it and the pending graph completes.
	c, cl := testCluster(t, 2)
	if _, err := cl.ExternalFutures([]taskgraph.Key{"ext"}); err != nil {
		t.Fatal(err)
	}
	bridge := c.NewClient("bridge", 1, math.Inf(1))
	if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 3.0}}, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(0, bridge.Now()); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.sched.taskState("ext"); st != StateExternal {
		t.Fatalf("lost external task state = %v, want external", st)
	}
	// A graph depending on it stays pending until the bridge republishes.
	g := taskgraph.New()
	g.AddFn("use", []taskgraph.Key{"ext"}, func(in []any) (any, error) {
		return in[0].(float64) + 1, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"use"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var gathered []any
	var gerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		gathered, gerr = cl.Gather(futs)
	}()
	if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 3.0}}, true, 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gerr != nil {
		t.Fatal(gerr)
	}
	if gathered[0].(float64) != 4 {
		t.Fatalf("use = %v, want 4", gathered[0])
	}
}

func TestKillWorkerReassignsQueuedWork(t *testing.T) {
	c, cl := testCluster(t, 2)
	// Many root tasks spread round-robin; kill worker 0 immediately, then
	// everything must still complete on worker 1.
	g := taskgraph.New()
	var targets []taskgraph.Key
	for i := 0; i < 8; i++ {
		key := taskgraph.Key(rune('a' + i))
		v := float64(i)
		g.AddFn(key, nil, func([]any) (any, error) { return v, nil }, 1e-3)
		targets = append(targets, key)
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v.(float64) != float64(i) {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
}

func TestKillWorkerGuards(t *testing.T) {
	c, _ := testCluster(t, 2)
	if err := c.KillWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(0, 0); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := c.KillWorker(1, 0); err == nil {
		t.Fatal("killed the last worker")
	}
}

func TestKillWorkerDeepLineage(t *testing.T) {
	// A chain a->b->c where all results lived on the dead worker: the
	// whole lineage recomputes.
	c, cl := testCluster(t, 2)
	var runs atomic.Int64
	g := taskgraph.New()
	g.AddFn("a", nil, func([]any) (any, error) { runs.Add(1); return 1.0, nil }, 1e-4)
	g.AddFn("b", []taskgraph.Key{"a"}, func(in []any) (any, error) {
		runs.Add(1)
		return in[0].(float64) + 1, nil
	}, 1e-4)
	g.AddFn("c", []taskgraph.Key{"b"}, func(in []any) (any, error) {
		runs.Add(1)
		return in[0].(float64) + 1, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"c"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	owner, _, _, _, _ := c.sched.locate("c")
	if err := c.KillWorker(owner, cl.Now()); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 3 {
		t.Fatalf("c = %v, want 3", vals[0])
	}
	if runs.Load() < 4 {
		t.Fatalf("lineage did not recompute: %d runs", runs.Load())
	}
}

func TestCascadingKillTwoOfThree(t *testing.T) {
	// Kill 2 of 3 workers while a fan-in graph is mid-flight: everything
	// must recompute onto the lone survivor.
	c, cl := testCluster(t, 3)
	c.EnableAudit()
	var runs atomic.Int64
	g := taskgraph.New()
	var roots []taskgraph.Key
	for i := 0; i < 9; i++ {
		key := taskgraph.Key(fmt.Sprintf("r%d", i))
		v := float64(i)
		g.AddFn(key, nil, func([]any) (any, error) {
			runs.Add(1)
			return v, nil
		}, 1e-3)
		roots = append(roots, key)
	}
	g.AddFn("sum", roots, func(in []any) (any, error) {
		total := 0.0
		for _, v := range in {
			total += v.(float64)
		}
		return total, nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"sum"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(0, cl.Now()); err != nil {
		t.Fatal(err)
	}
	if err := c.KillWorker(1, cl.Now()); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 36 {
		t.Fatalf("sum = %v, want 36", vals[0])
	}
	if got := c.LiveWorkers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LiveWorkers = %v, want [2]", got)
	}
	if owner, _, _, _, err := c.sched.locate("sum"); err != nil || owner != 2 {
		t.Fatalf("sum owner = %d (%v), want survivor 2", owner, err)
	}
}

func TestKillDuringWaitFor(t *testing.T) {
	// A client blocks in Wait while the worker executing the target is
	// killed mid-task: the abort must not report a completion, and the
	// recompute on the survivor must wake the waiter with the result.
	c, cl := testCluster(t, 2)
	c.EnableAudit()
	started := make(chan int, 4)
	release := make(chan struct{})
	var once sync.Once
	g := taskgraph.New()
	g.AddFn("slow", nil, func([]any) (any, error) {
		started <- 1
		<-release
		return 7.0, nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"slow"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cl.Wait(futs)
	}()
	<-started // task body is running on its worker
	c.sched.mu.Lock()
	victim := c.sched.lookupLocked("slow").worker
	c.sched.mu.Unlock()
	if err := c.KillWorker(victim, cl.Now()); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 7 {
		t.Fatalf("slow = %v, want 7", vals[0])
	}
	owner, _, _, _, err := c.sched.locate("slow")
	if err != nil {
		t.Fatal(err)
	}
	if owner == victim {
		t.Fatalf("result owned by killed worker %d", victim)
	}
}

func TestKillExternalOwnerBeforeDependentRuns(t *testing.T) {
	// The worker holding an external block dies right after the dependent
	// was assigned: the dependent is replanned, the block republished, and
	// the dependent completes with the correct value.
	c, cl := testCluster(t, 2)
	c.EnableAudit()
	if _, err := cl.ExternalFutures([]taskgraph.Key{"ext"}); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("use", []taskgraph.Key{"ext"}, func(in []any) (any, error) {
		return in[0].(float64) * 10, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"use"})
	if err != nil {
		t.Fatal(err)
	}
	bridge := c.NewClient("bridge", 1, math.Inf(1))
	if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 4.0}}, true, 0); err != nil {
		t.Fatal(err)
	}
	// Kill the owner immediately — racing the dependent's fetch/exec.
	if err := c.KillWorker(0, bridge.Now()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var vals []any
	var gerr error
	go func() {
		defer close(done)
		vals, gerr = cl.Gather(futs)
	}()
	// Republish if the scheduler reports the block lost; the dependent may
	// also have completed from the fetched copy before the kill landed.
	if st, _ := c.sched.taskState("ext"); st == StateExternal {
		if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 4.0}}, true, 1); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if gerr != nil {
		t.Fatal(gerr)
	}
	if vals[0].(float64) != 40 {
		t.Fatalf("use = %v, want 40", vals[0])
	}
}

// TestResilienceSweepWorkers runs a diamond graph plus an external
// publish across worker counts {1, 2, 8}, killing one worker mid-run
// where the cluster size permits, with the auditor on throughout.
func TestResilienceSweepWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		n := n
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			c, cl := testCluster(t, n)
			c.EnableAudit()
			if _, err := cl.ExternalFutures([]taskgraph.Key{"ext"}); err != nil {
				t.Fatal(err)
			}
			bridge := c.NewClient("bridge", 1, math.Inf(1))
			if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 5.0}}, true, n-1); err != nil {
				t.Fatal(err)
			}
			g := taskgraph.New()
			g.AddFn("left", []taskgraph.Key{"ext"}, func(in []any) (any, error) {
				return in[0].(float64) + 1, nil
			}, 1e-3)
			g.AddFn("right", []taskgraph.Key{"ext"}, func(in []any) (any, error) {
				return in[0].(float64) * 2, nil
			}, 1e-3)
			g.AddFn("join", []taskgraph.Key{"left", "right"}, func(in []any) (any, error) {
				return in[0].(float64) + in[1].(float64), nil
			}, 1e-3)
			futs, err := cl.Submit(g, []taskgraph.Key{"join"})
			if err != nil {
				t.Fatal(err)
			}
			if n > 1 {
				if err := c.KillWorker(0, cl.Now()); err != nil {
					t.Fatal(err)
				}
				if st, _ := c.sched.taskState("ext"); st == StateExternal {
					if err := bridge.Scatter([]ScatterItem{{Key: "ext", Value: 5.0}}, true, n-1); err != nil {
						t.Fatal(err)
					}
				}
			}
			vals, err := cl.Gather(futs)
			if err != nil {
				t.Fatal(err)
			}
			if vals[0].(float64) != 16 {
				t.Fatalf("join = %v, want 16", vals[0])
			}
			if !c.AuditEnabled() || len(c.AuditLog()) == 0 {
				t.Fatal("auditor recorded no transitions")
			}
		})
	}
}

func TestKillWorkerAbortsTraceSpan(t *testing.T) {
	// A kill mid-task must close the in-flight span as aborted (end
	// clamped to the kill time) so WriteChromeTrace stays well-formed,
	// and the recompute gets its own normal span.
	c, cl := testCluster(t, 2)
	c.EnableTracing()
	started := make(chan int, 4)
	release := make(chan struct{})
	var once sync.Once
	g := taskgraph.New()
	g.AddFn("victim", nil, func([]any) (any, error) {
		started <- 1
		<-release
		return 1.0, nil
	}, 5.0) // long virtual span so the kill time falls inside it
	futs, err := cl.Submit(g, []taskgraph.Key{"victim"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	c.sched.mu.Lock()
	victim := c.sched.lookupLocked("victim").worker
	c.sched.mu.Unlock()
	if err := c.KillWorker(victim, 1.0); err != nil {
		t.Fatal(err)
	}
	once.Do(func() { close(release) })
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	// Wait only syncs with the survivor's completion; the killed worker's
	// goroutine records its aborted span concurrently. Poll until it lands.
	var events []TraceEvent
	for deadline := time.Now().Add(5 * time.Second); ; {
		events = c.TraceEvents()
		found := false
		for _, e := range events {
			if e.Aborted {
				found = true
				break
			}
		}
		if found || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	var aborted, completed int
	for _, e := range events {
		if e.End < e.Start {
			t.Fatalf("span for %q ends before it starts: %+v", e.Key, e)
		}
		if e.Aborted {
			aborted++
			if e.Worker != victim {
				t.Fatalf("aborted span on worker %d, want %d", e.Worker, victim)
			}
			if e.End > 1.0 {
				t.Fatalf("aborted span end %v not clamped to kill time 1.0", e.End)
			}
		} else if e.Key == "victim" {
			completed++
		}
	}
	if aborted != 1 {
		t.Fatalf("aborted spans = %d, want 1", aborted)
	}
	if completed != 1 {
		t.Fatalf("completed victim spans = %d, want 1", completed)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c.TraceEvents(), nil); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	for _, ev := range decoded {
		if ev["dur"].(float64) < 0 {
			t.Fatalf("negative duration in chrome trace: %v", ev)
		}
	}
}
