package dask

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"deisago/internal/metrics"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// testClusterMem is testClusterQuick with worker memory governance on.
func testClusterMem(nWorkers int, limit int64) (*Cluster, *Client) {
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, nWorkers+2)
	wnodes := make([]netsim.NodeID, nWorkers)
	for i := range wnodes {
		wnodes[i] = netsim.NodeID(i + 2)
	}
	dcfg := DefaultConfig()
	dcfg.WorkerMemoryLimit = limit
	c := NewCluster(fabric, dcfg, 0, wnodes)
	return c, c.NewClient("client", 1, math.Inf(1))
}

// checkLedger asserts invariant 8 by hand on every live worker: ledgers
// match the map sums, the tiers are disjoint, no pinned block spilled,
// and any over-limit residency is an oversize grant.
func checkLedger(t *testing.T, c *Cluster, limit int64) {
	t.Helper()
	for wid, w := range c.workers {
		if !c.WorkerAlive(wid) {
			continue
		}
		mem, sumRes, spilledB, sumSp, overlap, extSpilled, evictable, _ := w.memAudit()
		if mem != sumRes {
			t.Fatalf("worker %d: ledger %d != resident sum %d", wid, mem, sumRes)
		}
		if spilledB != sumSp {
			t.Fatalf("worker %d: spilled ledger %d != spilled sum %d", wid, spilledB, sumSp)
		}
		if overlap {
			t.Fatalf("worker %d: block resident and spilled at once", wid)
		}
		if extSpilled {
			t.Fatalf("worker %d: external block was spilled", wid)
		}
		if limit > 0 && mem > limit && evictable > 1 {
			t.Fatalf("worker %d: %d bytes resident over limit %d with %d evictable blocks", wid, mem, limit, evictable)
		}
	}
}

// storeView is one worker's object store by tier, read from the store
// itself (the registry holds only the resident-bytes gauge).
type storeView struct {
	items, spilledItems int
	bytes, spilledBytes int64
}

func workerStore(c *Cluster, id int) storeView {
	w := c.workers[id]
	w.storeMu.RLock()
	defer w.storeMu.RUnlock()
	v := storeView{items: len(w.store), spilledItems: len(w.spilled), spilledBytes: w.spilledBytes}
	for _, e := range w.store {
		v.bytes += e.bytes
	}
	return v
}

// tasksExecuted reads a worker's worker/tasks_executed counter.
func tasksExecuted(c *Cluster, id int) int64 {
	return c.Metrics().Counter("worker", "tasks_executed", metrics.LInt("id", id)).Load()
}

func TestSpillAndUnspillRoundTrip(t *testing.T) {
	const limit = 64 // two 32-byte blocks
	c, cl := testClusterMem(1, limit)
	defer c.Close()
	c.EnableAudit()

	blocks := map[taskgraph.Key][]float64{
		"a": {1, 2, 3, 4},
		"b": {5, 6, 7, 8},
		"c": {9, 10, 11, 12},
	}
	for _, k := range []taskgraph.Key{"a", "b", "c"} {
		if err := cl.Scatter([]ScatterItem{{Key: k, Value: blocks[k]}}, false, 0); err != nil {
			t.Fatalf("scatter %s: %v", k, err)
		}
		checkLedger(t, c, limit)
	}
	st := workerStore(c, 0)
	if st.bytes > limit {
		t.Fatalf("resident %d bytes exceeds limit %d", st.bytes, limit)
	}
	if st.spilledItems != 1 || st.spilledBytes != 32 {
		t.Fatalf("want 1 spilled block of 32 bytes, got %d of %d", st.spilledItems, st.spilledBytes)
	}
	// "a" was the least recently used, so it is the one on the PFS.
	ida := c.sched.intern("a")
	if _, resident := c.workers[0].store[ida]; resident {
		t.Fatal("expected block a to be spilled, found it resident")
	}
	sp := c.Metrics().Counter("memory", "spill_events").Load()
	if sp != 1 {
		t.Fatalf("memory/spill_events = %d, want 1", sp)
	}

	// Gathering a spilled block unspills it transparently and the value
	// comes back bit-identical; the unspill may push another block out.
	before := cl.Now()
	for _, k := range []taskgraph.Key{"a", "b", "c"} {
		vals, err := cl.Gather([]*Future{{Key: k, client: cl}})
		if err != nil {
			t.Fatalf("gather %s: %v", k, err)
		}
		got := vals[0].([]float64)
		want := blocks[k]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("gather %s: element %d = %v, want %v", k, i, got[i], want[i])
			}
		}
		checkLedger(t, c, limit)
	}
	if cl.Now() <= before {
		t.Fatal("unspill reads charged no virtual time")
	}
}

// TestMemoryGaugesZeroAfterRelease checks that an ungoverned worker's
// memory gauge comes back down: once the client has gathered and
// released every result, every worker memory series reads 0.
func TestMemoryGaugesZeroAfterRelease(t *testing.T) {
	c, cl := testCluster(t, 2)
	if err := cl.Scatter([]ScatterItem{{Key: "x", Value: []float64{1, 2, 3, 4}}}, false, 1); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("a", nil, func([]any) (any, error) { return []float64{1, 2}, nil }, 1e-4)
	g.AddFn("b", []taskgraph.Key{"a", "x"}, func(in []any) (any, error) {
		return []float64{in[0].([]float64)[0] + in[1].([]float64)[3]}, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs); err != nil {
		t.Fatal(err)
	}
	held := 0.0
	for _, gs := range c.Metrics().Snapshot().Gauges {
		if strings.HasPrefix(gs.ID, "worker/memory_bytes") {
			held += gs.Value
		}
	}
	if held == 0 {
		t.Fatal("no worker memory gauge rose before release")
	}
	if err := cl.Release(futs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Release([]*Future{{Key: "a", client: cl}, {Key: "x", client: cl}}); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, gs := range c.Metrics().Snapshot().Gauges {
		if strings.HasPrefix(gs.ID, "worker/memory_bytes") || strings.HasPrefix(gs.ID, "memory/") {
			series++
			if gs.Value != 0 {
				t.Errorf("%s = %v after release, want 0", gs.ID, gs.Value)
			}
		}
	}
	if series < 2 {
		t.Fatalf("found %d worker memory series, want one per worker", series)
	}
}

func TestScatterBackpressureWindow(t *testing.T) {
	c, cl := testClusterQuick(1)
	defer c.Close()
	c.EnableAudit()

	// No base limit; a chaos-style window squeezes worker 0 below one
	// block for [0, 5). The scatter is refused and the client clock is
	// carried to the window end, so the retry lands past the squeeze.
	c.SetWorkerMemoryWindow(0, 16, 0, 5)
	err := cl.Scatter([]ScatterItem{{Key: "x", Value: []float64{1, 2, 3, 4}}}, false, 0)
	if !errors.Is(err, ErrWorkerPaused) {
		t.Fatalf("scatter under squeeze: got %v, want ErrWorkerPaused", err)
	}
	if now := cl.Now(); now < 5 {
		t.Fatalf("client clock %v after refusal, want >= window end 5", now)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "x", Value: []float64{1, 2, 3, 4}}}, false, 0); err != nil {
		t.Fatalf("scatter after window: %v", err)
	}
	if got := workerStore(c, 0).bytes; got != 32 {
		t.Fatalf("resident bytes = %d, want 32", got)
	}
}

func TestOversizeSingleBlockGrant(t *testing.T) {
	const limit = 64
	c, cl := testClusterMem(1, limit)
	defer c.Close()
	c.EnableAudit()

	// A single block larger than the limit must be admitted (there is
	// nowhere else for it to go) and the auditor must accept the state
	// as an oversize grant.
	big := make([]float64, 16) // 128 bytes
	if err := cl.Scatter([]ScatterItem{{Key: "big", Value: big}}, false, 0); err != nil {
		t.Fatalf("oversize scatter: %v", err)
	}
	st := workerStore(c, 0)
	if st.bytes != 128 || st.spilledItems != 0 {
		t.Fatalf("want 128 resident / 0 spilled, got %d / %d", st.bytes, st.spilledItems)
	}
	checkLedger(t, c, limit)
}

func TestExternalBlocksArePinned(t *testing.T) {
	const limit = 64
	c, cl := testClusterMem(1, limit)
	defer c.Close()
	c.EnableAudit()

	keys := []taskgraph.Key{"e1", "e2", "e3"}
	if _, err := cl.ExternalFutures(keys); err != nil {
		t.Fatal(err)
	}
	bridge := c.NewClient("bridge", 1, math.Inf(1))
	for _, k := range keys {
		if err := bridge.Scatter([]ScatterItem{{Key: k, Value: []float64{1, 2, 3, 4}}}, true, 0); err != nil {
			t.Fatalf("publish %s: %v", k, err)
		}
	}
	// 96 pinned bytes sit over the 64-byte limit and none may spill.
	st := workerStore(c, 0)
	if st.bytes != 96 || st.spilledItems != 0 {
		t.Fatalf("want 96 resident / 0 spilled, got %d / %d", st.bytes, st.spilledItems)
	}
	checkLedger(t, c, limit)

	// Plain data still flows: the first plain block is granted, and a
	// second one evicts it (the only unpinned block) to the PFS.
	if err := cl.Scatter([]ScatterItem{{Key: "p1", Value: []float64{1, 2, 3, 4}}}, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "p2", Value: []float64{5, 6, 7, 8}}}, false, 0); err != nil {
		t.Fatal(err)
	}
	st = workerStore(c, 0)
	if st.spilledItems != 1 {
		t.Fatalf("want the older plain block spilled, got %d spilled", st.spilledItems)
	}
	checkLedger(t, c, limit)
}

func TestSchedulerSkipsPausedWorker(t *testing.T) {
	const limit = 64
	c, cl := testClusterMem(2, limit)
	defer c.Close()
	c.EnableAudit()

	// Pin worker 0 above its watermark (0.8 * 64 = 51.2 bytes) with
	// published external data.
	if _, err := cl.ExternalFutures([]taskgraph.Key{"ext"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "ext", Value: make([]float64, 8)}}, true, 0); err != nil {
		t.Fatal(err)
	}
	if !c.WorkerPaused(0, cl.Now()) {
		t.Fatal("worker 0 should be paused at 64/64 bytes")
	}
	if c.WorkerPaused(1, cl.Now()) {
		t.Fatal("worker 1 should not be paused")
	}

	// Independent tasks (no locality pull) must all land on worker 1.
	g := taskgraph.New()
	targets := make([]taskgraph.Key, 6)
	for i := range targets {
		k := taskgraph.Key(fmt.Sprintf("t%d", i))
		g.AddFn(k, nil, func([]any) (any, error) { return 1.0, nil }, 1e-5)
		targets[i] = k
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	if n := tasksExecuted(c, 0); n != 0 {
		t.Fatalf("paused worker 0 executed %d tasks, want 0", n)
	}
	if n := tasksExecuted(c, 1); n != int64(len(targets)) {
		t.Fatalf("worker 1 executed %d tasks, want %d", n, len(targets))
	}
}

func TestAllWorkersPausedStillSchedules(t *testing.T) {
	const limit = 64
	c, cl := testClusterMem(1, limit)
	defer c.Close()
	c.EnableAudit()

	// The only worker is paused; liveness requires assignment anyway.
	if _, err := cl.ExternalFutures([]taskgraph.Key{"ext"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "ext", Value: make([]float64, 8)}}, true, 0); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("t", nil, func([]any) (any, error) { return 2.0, nil }, 1e-5)
	futs, err := cl.Submit(g, []taskgraph.Key{"t"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 2.0 {
		t.Fatalf("got %v, want 2", vals[0])
	}
	checkLedger(t, c, limit)
}

// TestMemoryGovernanceTwinProperty drives a governed cluster and an
// unlimited twin through the same random store/evict/gather workload:
// analytics values and final block contents must be bit-identical, and
// the governed ledgers must conserve at every step.
func TestMemoryGovernanceTwinProperty(t *testing.T) {
	const limit = 96
	prop := func(ops []byte) bool {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		gc, gcl := testClusterMem(2, limit)
		defer gc.Close()
		gc.EnableAudit()
		uc, ucl := testClusterQuick(2)
		defer uc.Close()
		uc.EnableAudit()

		sum := func(in []any) (any, error) {
			total := 0.0
			for _, v := range in {
				switch x := v.(type) {
				case float64:
					total += x
				case []float64:
					for _, f := range x {
						total += f
					}
				}
			}
			return total, nil
		}

		var keys []taskgraph.Key     // scattered block keys
		var taskKeys []taskgraph.Key // submitted task keys
		nextID := 0
		for i := 0; i < len(ops); i++ {
			op := ops[i] % 4
			arg := byte(0)
			if i+1 < len(ops) {
				arg = ops[i+1]
			}
			switch op {
			case 0: // scatter a block derived from the op stream
				nextID++
				k := taskgraph.Key(fmt.Sprintf("blk%d", nextID))
				val := make([]float64, 4+int(arg)%8)
				for j := range val {
					val[j] = float64(int(arg)+j) * 1.5
				}
				w := int(arg) % 2
				if err := gcl.Scatter([]ScatterItem{{Key: k, Value: val}}, false, w); err != nil {
					t.Logf("op %d: governed scatter %s: %v", i, k, err)
					return false
				}
				if err := ucl.Scatter([]ScatterItem{{Key: k, Value: val}}, false, w); err != nil {
					t.Logf("op %d: unlimited scatter %s: %v", i, k, err)
					return false
				}
				keys = append(keys, k)
			case 1: // submit a task over a random block
				if len(keys) == 0 {
					continue
				}
				dep := keys[int(arg)%len(keys)]
				nextID++
				k := taskgraph.Key(fmt.Sprintf("task%d", nextID))
				for _, pair := range []struct {
					cl *Client
				}{{gcl}, {ucl}} {
					g := taskgraph.New()
					g.AddFn(k, []taskgraph.Key{dep}, sum, 1e-5)
					if _, err := pair.cl.Submit(g, []taskgraph.Key{k}); err != nil {
						t.Logf("op %d: submit %s: %v", i, k, err)
						return false
					}
				}
				taskKeys = append(taskKeys, k)
			case 2: // gather one task result on both and compare bits
				if len(taskKeys) == 0 {
					continue
				}
				k := taskKeys[int(arg)%len(taskKeys)]
				gv, gerr := gcl.Gather([]*Future{{Key: k, client: gcl}})
				uv, uerr := ucl.Gather([]*Future{{Key: k, client: ucl}})
				if (gerr == nil) != (uerr == nil) {
					t.Logf("op %d: gather %s: governed err %v vs unlimited err %v", i, k, gerr, uerr)
					return false
				}
				if gerr == nil && gv[0].(float64) != uv[0].(float64) {
					t.Logf("op %d: gather %s: %v vs %v", i, k, gv[0], uv[0])
					return false
				}
			case 3: // release one task result on both
				if len(taskKeys) == 0 {
					continue
				}
				k := taskKeys[int(arg)%len(taskKeys)]
				_ = gcl.Wait([]*Future{{Key: k, client: gcl}})
				_ = ucl.Wait([]*Future{{Key: k, client: ucl}})
				_ = gcl.Release([]*Future{{Key: k, client: gcl}})
				_ = ucl.Release([]*Future{{Key: k, client: ucl}})
			}
			checkLedger(t, gc, limit)
		}

		// Barrier: both twins drain all surviving tasks before comparison
		// (errors are released/unknown keys, which compare by state below).
		for _, k := range taskKeys {
			_ = gcl.Wait([]*Future{{Key: k, client: gcl}})
			_ = ucl.Wait([]*Future{{Key: k, client: ucl}})
		}

		// Final comparison: every surviving task value and every block's
		// contents must be bit-identical across the twins, spills or not.
		for _, k := range taskKeys {
			gst, gok := gc.TaskState(k)
			ust, uok := uc.TaskState(k)
			if gok != uok || (gok && gst != ust) {
				t.Logf("final: task %s state %v/%v vs %v/%v", k, gst, gok, ust, uok)
				return false
			}
			if !gok || gst != StateMemory {
				continue
			}
			gv, gerr := gcl.Gather([]*Future{{Key: k, client: gcl}})
			uv, uerr := ucl.Gather([]*Future{{Key: k, client: ucl}})
			if gerr != nil || uerr != nil || gv[0].(float64) != uv[0].(float64) {
				t.Logf("final: task %s gather %v (%v) vs %v (%v)", k, gv, gerr, uv, uerr)
				return false
			}
		}
		for _, k := range keys {
			_, gid, _, _, gerr := gc.sched.locate(k)
			_, uid, _, _, uerr := uc.sched.locate(k)
			if (gerr == nil) != (uerr == nil) {
				t.Logf("final: block %s locate: %v vs %v", k, gerr, uerr)
				return false
			}
			if gerr != nil {
				continue
			}
			gwid, _, _, _, _ := gc.sched.locate(k)
			uwid, _, _, _, _ := uc.sched.locate(k)
			ge, _ := gc.workers[gwid].get(gid)
			ue, _ := uc.workers[uwid].get(uid)
			gb, ub := ge.value.([]float64), ue.value.([]float64)
			if len(gb) != len(ub) {
				t.Logf("final: block %s length %d vs %d", k, len(gb), len(ub))
				return false
			}
			for j := range gb {
				if gb[j] != ub[j] {
					t.Logf("final: block %s element %d: %v vs %v", k, j, gb[j], ub[j])
					return false
				}
			}
		}
		checkLedger(t, gc, limit)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherWindowClosesMidGather covers gathering spilled blocks while
// a chaos memlimit window expires between unspills: the first gather's
// unspill completes inside the squeeze (governance must honour the
// tightened limit), the next one completes after the window closed
// (governance must be back at the base limit). The window boundary is
// placed between the two unspill completions using the read time
// measured on an identical twin cluster — the simulation is
// deterministic, so the twin's timing transfers exactly.
func TestGatherWindowClosesMidGather(t *testing.T) {
	const limit = 64 // two 32-byte blocks
	blocks := map[taskgraph.Key][]float64{
		"a": {1, 2, 3, 4},
		"b": {5, 6, 7, 8},
		"c": {9, 10, 11, 12},
	}
	setup := func() (*Cluster, *Client) {
		c, cl := testClusterMem(1, limit)
		c.EnableAudit()
		for _, k := range []taskgraph.Key{"a", "b", "c"} {
			if err := cl.Scatter([]ScatterItem{{Key: k, Value: blocks[k]}}, false, 0); err != nil {
				t.Fatalf("scatter %s: %v", k, err)
			}
		}
		return c, cl
	}

	// Twin run: measure the virtual cost of unspilling "a" (the LRU
	// victim of the third scatter) with no window installed.
	tc, tcl := setup()
	t0 := tcl.Now()
	if _, err := tcl.Gather([]*Future{{Key: "a", client: tcl}}); err != nil {
		t.Fatalf("twin gather: %v", err)
	}
	unspillCost := tcl.Now() - t0
	tc.Close()
	if unspillCost <= 0 {
		t.Fatalf("twin unspill charged no virtual time (cost %v)", unspillCost)
	}

	// Real run: squeeze worker 0 to 16 bytes for a window that contains
	// the first unspill completion (t0 + cost) but not the second
	// (>= t0 + 2*cost, since the second gather starts after the first).
	c, cl := setup()
	defer c.Close()
	c.SetWorkerMemoryWindow(0, 16, t0, t0+1.5*unspillCost)

	// Gather "a": the unspill lands inside the squeeze, so governance
	// evicts both resident blocks ("a" itself is kept as an oversize
	// grant: 32 bytes over a 16-byte limit with nothing else evictable).
	vals, err := cl.Gather([]*Future{{Key: "a", client: cl}})
	if err != nil {
		t.Fatalf("gather a under squeeze: %v", err)
	}
	for i, want := range blocks["a"] {
		if vals[0].([]float64)[i] != want {
			t.Fatalf("gather a: element %d = %v, want %v", i, vals[0].([]float64)[i], want)
		}
	}
	st := workerStore(c, 0)
	if st.bytes != 32 || st.spilledItems != 2 {
		t.Fatalf("under squeeze: want 32 resident / 2 spilled, got %d / %d",
			st.bytes, st.spilledItems)
	}
	checkLedger(t, c, limit)

	// Gather "b": its unspill completes after the window closed, so the
	// base limit is back — "b" joins "a" at exactly the 64-byte limit
	// with no eviction. A still-open window would have evicted "a".
	vals, err = cl.Gather([]*Future{{Key: "b", client: cl}})
	if err != nil {
		t.Fatalf("gather b after window: %v", err)
	}
	for i, want := range blocks["b"] {
		if vals[0].([]float64)[i] != want {
			t.Fatalf("gather b: element %d = %v, want %v", i, vals[0].([]float64)[i], want)
		}
	}
	st = workerStore(c, 0)
	if st.bytes != 64 || st.spilledItems != 1 {
		t.Fatalf("after window: want 64 resident / 1 spilled, got %d / %d",
			st.bytes, st.spilledItems)
	}
	checkLedger(t, c, limit)

	// Gather "c" round-trips the remaining spilled block and pushes the
	// ledger back to the limit by evicting the now-LRU "a".
	vals, err = cl.Gather([]*Future{{Key: "c", client: cl}})
	if err != nil {
		t.Fatalf("gather c: %v", err)
	}
	for i, want := range blocks["c"] {
		if vals[0].([]float64)[i] != want {
			t.Fatalf("gather c: element %d = %v, want %v", i, vals[0].([]float64)[i], want)
		}
	}
	st = workerStore(c, 0)
	if st.bytes != 64 || st.spilledItems != 1 {
		t.Fatalf("final: want 64 resident / 1 spilled, got %d / %d",
			st.bytes, st.spilledItems)
	}
	ida := c.sched.intern("a")
	if _, resident := c.workers[0].store[ida]; resident {
		t.Fatal("expected block a (LRU) to be the final spilled block")
	}
	checkLedger(t, c, limit)
}
