package dask

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// testCluster builds a small cluster: scheduler on node 0, client node 1,
// workers on nodes 2..2+n-1.
func testCluster(t *testing.T, nWorkers int) (*Cluster, *Client) {
	t.Helper()
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
	c := NewCluster(fabric, DefaultConfig(), 0, wnodes)
	t.Cleanup(c.Close)
	return c, c.NewClient("client", 1, math.Inf(1))
}

func constTask(g *taskgraph.Graph, key taskgraph.Key, v float64) {
	g.AddFn(key, nil, func([]any) (any, error) { return v, nil }, 1e-3)
}

func sumTask(g *taskgraph.Graph, key taskgraph.Key, deps ...taskgraph.Key) {
	g.AddFn(key, deps, func(in []any) (any, error) {
		var s float64
		for _, x := range in {
			s += x.(float64)
		}
		return s, nil
	}, 1e-3)
}

func TestSubmitAndGather(t *testing.T) {
	_, cl := testCluster(t, 2)
	g := taskgraph.New()
	constTask(g, "a", 2)
	constTask(g, "b", 3)
	sumTask(g, "c", "a", "b")
	futs, err := cl.Submit(g, []taskgraph.Key{"c"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 5 {
		t.Fatalf("c = %v, want 5", vals[0])
	}
	if cl.Now() <= 0 {
		t.Fatal("gather advanced no virtual time")
	}
}

func TestDiamondExecutesEachTaskOnce(t *testing.T) {
	_, cl := testCluster(t, 3)
	var mu sync.Mutex
	counts := map[string]int{}
	record := func(name string) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
	}
	g := taskgraph.New()
	g.AddFn("a", nil, func([]any) (any, error) { record("a"); return 1.0, nil }, 1e-3)
	g.AddFn("b", []taskgraph.Key{"a"}, func(in []any) (any, error) { record("b"); return in[0].(float64) + 1, nil }, 1e-3)
	g.AddFn("c", []taskgraph.Key{"a"}, func(in []any) (any, error) { record("c"); return in[0].(float64) * 2, nil }, 1e-3)
	g.AddFn("d", []taskgraph.Key{"b", "c"}, func(in []any) (any, error) {
		record("d")
		return in[0].(float64) + in[1].(float64), nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"d"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 4 {
		t.Fatalf("d = %v, want 4", vals[0])
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		if counts[k] != 1 {
			t.Fatalf("task %s executed %d times", k, counts[k])
		}
	}
}

func TestSubmitCullsUnreachable(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	constTask(g, "a", 1)
	constTask(g, "orphan", 9)
	sumTask(g, "b", "a")
	if _, err := cl.Submit(g, []taskgraph.Key{"b"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.sched.taskState("orphan"); ok {
		t.Fatal("orphan task registered despite cull")
	}
}

func TestScatterThenSubmit(t *testing.T) {
	_, cl := testCluster(t, 2)
	err := cl.Scatter([]ScatterItem{{Key: "data-0", Value: 10.0}}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("double", []taskgraph.Key{"data-0"}, func(in []any) (any, error) {
		return in[0].(float64) * 2, nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"double"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 20 {
		t.Fatalf("double = %v", vals[0])
	}
}

// TestScatterDuplicateKeyRejected checks that a rejected duplicate
// scatter leaves the accepted value in place: the store's resident bytes
// stay equal to the scheduler's record, and a dependent reads the first
// value.
func TestScatterDuplicateKeyRejected(t *testing.T) {
	c, cl := testCluster(t, 1)
	if err := cl.Scatter([]ScatterItem{{Key: "k", Value: 1.0}}, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "k", Value: make([]float64, 16)}}, false, 0); err == nil {
		t.Fatal("duplicate scatter accepted")
	}
	_, _, bytes, _, err := c.sched.locate("k")
	if err != nil {
		t.Fatal(err)
	}
	if mem, sumRes, _, _, _, _, _, _ := c.workers[0].memAudit(); mem != bytes || sumRes != bytes {
		t.Fatalf("worker holds %d B (ledger %d B), scheduler records %d B", sumRes, mem, bytes)
	}
	g := taskgraph.New()
	g.AddFn("dep", []taskgraph.Key{"k"}, func(in []any) (any, error) { return in[0], nil }, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"dep"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := vals[0].(float64); !ok || v != 1 {
		t.Fatalf("dependent read %v, want the first value 1", vals[0])
	}
}

// TestExternalTasksAheadOfTime is the core behaviour of the paper: the
// analytics graph is submitted before the data exists; external scatter
// later triggers the finished-task transition path and the graph runs.
func TestExternalTasksAheadOfTime(t *testing.T) {
	c, cl := testCluster(t, 2)
	// Step 1: create external tasks for two future timesteps.
	keys := []taskgraph.Key{"deisa-temp-0", "deisa-temp-1"}
	if _, err := cl.ExternalFutures(keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		st, ok := c.sched.taskState(k)
		if !ok || st != StateExternal {
			t.Fatalf("key %s state = %v, want external", k, st)
		}
	}
	// Step 2: submit a graph depending on both BEFORE any data exists.
	g := taskgraph.New()
	g.AddFn("total", keys, func(in []any) (any, error) {
		return in[0].(float64) + in[1].(float64), nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"total"})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := c.sched.taskState("total"); st != StateWaiting {
		t.Fatalf("total state = %v before data, want waiting", st)
	}
	// Step 3: a "bridge" scatters the external results.
	bridge := c.NewClient("bridge", 1, math.Inf(1))
	if err := bridge.Scatter([]ScatterItem{{Key: "deisa-temp-0", Value: 4.0}}, true, 0); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.sched.taskState("total"); st != StateWaiting {
		t.Fatalf("total state = %v after partial data, want waiting", st)
	}
	if err := bridge.Scatter([]ScatterItem{{Key: "deisa-temp-1", Value: 5.0}}, true, 1); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 9 {
		t.Fatalf("total = %v, want 9", vals[0])
	}
	if st, _ := c.sched.taskState("deisa-temp-0"); st != StateMemory {
		t.Fatalf("external task state after update = %v, want memory", st)
	}
}

// TestExternalScatterUnknownKeyRejected also checks that the rejected
// block is not left in the worker's store, where no key would own it.
func TestExternalScatterUnknownKeyRejected(t *testing.T) {
	c, cl := testCluster(t, 1)
	if err := cl.Scatter([]ScatterItem{{Key: "ghost", Value: make([]float64, 4)}}, true, 0); err == nil {
		t.Fatal("external scatter to unknown key accepted")
	}
	if v := workerStore(c, 0); v.items != 0 || v.bytes != 0 {
		t.Fatalf("rejected scatter left %d items (%d B) in the store", v.items, v.bytes)
	}
}

func TestExternalDoubleCreateRejected(t *testing.T) {
	_, cl := testCluster(t, 1)
	if _, err := cl.ExternalFutures([]taskgraph.Key{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ExternalFutures([]taskgraph.Key{"x"}); err == nil {
		t.Fatal("double external create accepted")
	}
}

func TestNonExternalScatterToExternalKeyRejected(t *testing.T) {
	_, cl := testCluster(t, 1)
	if _, err := cl.ExternalFutures([]taskgraph.Key{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Scatter([]ScatterItem{{Key: "x", Value: 1.0}}, false, 0); err == nil {
		t.Fatal("plain scatter to external key accepted")
	}
}

func TestSubmitUnknownDependencyRejected(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	g.AddFn("t", []taskgraph.Key{"missing"}, func([]any) (any, error) { return nil, nil }, 0)
	if _, err := cl.Submit(g, []taskgraph.Key{"t"}); err == nil {
		t.Fatal("unknown dependency accepted")
	}
}

func TestErredTaskPropagates(t *testing.T) {
	_, cl := testCluster(t, 2)
	boom := errors.New("boom")
	g := taskgraph.New()
	g.AddFn("bad", nil, func([]any) (any, error) { return nil, boom }, 1e-3)
	g.AddFn("child", []taskgraph.Key{"bad"}, func(in []any) (any, error) { return 1.0, nil }, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"child"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs); err == nil || !errors.Is(err, boom) {
		t.Fatalf("gather error = %v, want wrapped boom", err)
	}
}

func TestSubmitAfterDependencyErred(t *testing.T) {
	c, cl := testCluster(t, 1)
	boom := errors.New("kaput")
	g := taskgraph.New()
	g.AddFn("bad", nil, func([]any) (any, error) { return nil, boom }, 1e-3)
	futs, _ := cl.Submit(g, []taskgraph.Key{"bad"})
	if _, err := cl.Gather(futs); err == nil {
		t.Fatal("want error")
	}
	_ = c
	g2 := taskgraph.New()
	g2.AddFn("late", []taskgraph.Key{"bad"}, func([]any) (any, error) { return 1.0, nil }, 1e-3)
	futs2, err := cl.Submit(g2, []taskgraph.Key{"late"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Gather(futs2); err == nil {
		t.Fatal("dependent of erred task should err")
	}
}

func TestDataLocalityAssignment(t *testing.T) {
	c, cl := testCluster(t, 3)
	// Scatter a large block to worker 2.
	big := ndarray.New(1000)
	if err := cl.Scatter([]ScatterItem{{Key: "big", Value: big}}, false, 2); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("use", []taskgraph.Key{"big"}, func(in []any) (any, error) {
		return in[0].(*ndarray.Array).Sum(), nil
	}, 1e-3)
	futs, err := cl.Submit(g, []taskgraph.Key{"use"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	wid, _, _, _, err := c.sched.locate("use")
	if err != nil {
		t.Fatal(err)
	}
	if wid != 2 {
		t.Fatalf("task ran on worker %d, want 2 (data locality)", wid)
	}
}

func TestRoundRobinForRootTasks(t *testing.T) {
	c, cl := testCluster(t, 3)
	g := taskgraph.New()
	for i := 0; i < 6; i++ {
		constTask(g, taskgraph.Key(fmt.Sprintf("r%d", i)), float64(i))
	}
	var targets []taskgraph.Key
	for i := 0; i < 6; i++ {
		targets = append(targets, taskgraph.Key(fmt.Sprintf("r%d", i)))
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, k := range targets {
		wid, _, _, _, err := c.sched.locate(k)
		if err != nil {
			t.Fatal(err)
		}
		seen[wid]++
	}
	for w := 0; w < 3; w++ {
		if seen[w] != 2 {
			t.Fatalf("round robin skew: %v", seen)
		}
	}
}

func TestVariableAcrossClients(t *testing.T) {
	c, cl := testCluster(t, 1)
	other := c.NewClient("other", 1, math.Inf(1))
	done := make(chan any, 1)
	go func() {
		done <- other.Variable("contract").Get()
	}()
	cl.Variable("contract").Set("selection-xyz")
	if got := <-done; got.(string) != "selection-xyz" {
		t.Fatalf("variable = %v", got)
	}
	// Get after set, same client.
	if got := cl.Variable("contract").Get(); got.(string) != "selection-xyz" {
		t.Fatalf("second get = %v", got)
	}
}

func TestQueueFIFOAcrossClients(t *testing.T) {
	c, cl := testCluster(t, 1)
	q := cl.Queue("q0")
	q.Put(1.0)
	q.Put(2.0)
	other := c.NewClient("other", 1, math.Inf(1))
	if got := other.Queue("q0").Get(); got.(float64) != 1 {
		t.Fatalf("first = %v", got)
	}
	if got := other.Queue("q0").Get(); got.(float64) != 2 {
		t.Fatalf("second = %v", got)
	}
}

func TestHeartbeatTick(t *testing.T) {
	c, _ := testCluster(t, 1)
	b := c.NewClient("bridge", 1, 5) // 5 s interval
	if n := b.HeartbeatTick(); n != 0 {
		t.Fatalf("tick at t=0 sent %d", n)
	}
	b.Compute(12)
	if n := b.HeartbeatTick(); n != 2 {
		t.Fatalf("tick after 12 s sent %d, want 2", n)
	}
	b.Compute(2)
	if n := b.HeartbeatTick(); n != 0 {
		t.Fatalf("tick after 14 s sent %d, want 0", n)
	}
	if got := c.Metrics().Counter("dask", "heartbeats").Load(); got != 2 {
		t.Fatalf("heartbeat counter = %d", got)
	}
	// Infinite interval sends nothing.
	inf := c.NewClient("inf", 1, math.Inf(1))
	inf.Compute(1e6)
	if n := inf.HeartbeatTick(); n != 0 {
		t.Fatal("infinite heartbeat interval sent messages")
	}
}

func TestCountersTally(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	constTask(g, "a", 1)
	futs, _ := cl.Submit(g, []taskgraph.Key{"a"})
	cl.Gather(futs)
	cl.Scatter([]ScatterItem{{Key: "s", Value: 1.0}}, false, 0)
	if _, err := cl.ExternalFutures([]taskgraph.Key{"e1", "e2"}); err != nil {
		t.Fatal(err)
	}
	cl.SendMetadata(5)
	cl.Variable("v").Set(1.0)
	cl.Variable("v").Get()
	cl.Queue("q").Put(1.0)
	cl.Queue("q").Get()
	snap := c.Metrics().Snapshot()
	for id, want := range map[string]int64{
		"dask/graphs_submitted": 1, "dask/tasks_registered": 1,
		"dask/update_data_msgs": 1, "dask/task_finished_msgs": 1,
		"dask/gather_requests": 1, "dask/external_created": 2,
		"dask/metadata_msgs": 1, "dask/metadata_entries": 5,
		"dask/variable_ops": 2, "dask/queue_ops": 2, "dask/heartbeats": 0,
	} {
		if got := snap.Counter(id); got != want {
			t.Errorf("%s = %d, want %d", id, got, want)
		}
	}
	if snap.Counter("dask/total_scheduler_msgs") == 0 {
		t.Fatal("total messages not counted")
	}
}

func TestVirtualTimeGrowsWithDataSize(t *testing.T) {
	times := make([]float64, 2)
	for i, n := range []int{1 << 8, 1 << 22} {
		_, cl := testCluster(t, 1)
		if err := cl.Scatter([]ScatterItem{{Key: "d", Value: ndarray.New(n)}}, false, 0); err != nil {
			t.Fatal(err)
		}
		times[i] = cl.Now()
	}
	if times[1] <= times[0] {
		t.Fatalf("scatter of 32 MiB not slower than 2 KiB: %v", times)
	}
}

func TestWaitForUnknownKey(t *testing.T) {
	_, cl := testCluster(t, 1)
	f := &Future{Key: "nope", client: cl}
	if err := cl.Wait([]*Future{f}); err == nil {
		t.Fatal("wait for unknown key succeeded")
	}
}

func TestFutureResultAndString(t *testing.T) {
	_, cl := testCluster(t, 1)
	g := taskgraph.New()
	constTask(g, "a", 7)
	futs, _ := cl.Submit(g, []taskgraph.Key{"a"})
	v, err := futs[0].Result()
	if err != nil || v.(float64) != 7 {
		t.Fatalf("Result = %v, %v", v, err)
	}
	if s := futs[0].String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestChainedSubmitsShareResults(t *testing.T) {
	// A second graph may depend on keys computed by a first graph.
	_, cl := testCluster(t, 2)
	g1 := taskgraph.New()
	constTask(g1, "x", 21)
	futs1, err := cl.Submit(g1, []taskgraph.Key{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs1); err != nil {
		t.Fatal(err)
	}
	g2 := taskgraph.New()
	g2.AddFn("y", []taskgraph.Key{"x"}, func(in []any) (any, error) {
		return in[0].(float64) * 2, nil
	}, 1e-3)
	futs2, err := cl.Submit(g2, []taskgraph.Key{"y"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs2)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 42 {
		t.Fatalf("y = %v", vals[0])
	}
}

// Property: a random linear pipeline (x -> f1 -> f2 -> ... -> fn) with
// random integer increments computes the same result as local evaluation.
func TestPipelineQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		incs := make([]float64, n)
		want := 0.0
		for i := range incs {
			incs[i] = float64(rng.Intn(100))
			want += incs[i]
		}
		_, cl := testClusterQuick(2)
		defer cl.cluster.Close()
		g := taskgraph.New()
		prev := taskgraph.Key("")
		for i, inc := range incs {
			key := taskgraph.Key(fmt.Sprintf("step-%d", i))
			inc := inc
			if i == 0 {
				g.AddFn(key, nil, func([]any) (any, error) { return inc, nil }, 1e-4)
			} else {
				g.AddFn(key, []taskgraph.Key{prev}, func(in []any) (any, error) {
					return in[0].(float64) + inc, nil
				}, 1e-4)
			}
			prev = key
		}
		futs, err := cl.Submit(g, []taskgraph.Key{prev})
		if err != nil {
			return false
		}
		vals, err := cl.Gather(futs)
		if err != nil {
			return false
		}
		return vals[0].(float64) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// testClusterQuick is testCluster without *testing.T, for quick.Check.
func testClusterQuick(nWorkers int) (*Cluster, *Client) {
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
	c := NewCluster(fabric, DefaultConfig(), 0, wnodes)
	return c, c.NewClient("client", 1, math.Inf(1))
}

func TestConcurrentClients(t *testing.T) {
	c, _ := testCluster(t, 4)
	const N = 8
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := c.NewClient(fmt.Sprintf("c%d", i), 1, math.Inf(1))
			g := taskgraph.New()
			key := taskgraph.Key(fmt.Sprintf("job-%d", i))
			v := float64(i)
			g.AddFn(key, nil, func([]any) (any, error) { return v, nil }, 1e-4)
			futs, err := cl.Submit(g, []taskgraph.Key{key})
			if err != nil {
				errs[i] = err
				return
			}
			vals, err := cl.Gather(futs)
			if err != nil {
				errs[i] = err
				return
			}
			if vals[0].(float64) != v {
				errs[i] = fmt.Errorf("got %v want %v", vals[0], v)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestSizeOf(t *testing.T) {
	cases := []struct {
		v    any
		want int64
	}{
		{nil, 8},
		{ndarray.New(10, 10), 800},
		{[]float64{1, 2, 3}, 24},
		{[][]float64{{1}, {2, 3}}, 24},
		{[]byte{1, 2}, 2},
		{"abcd", 4},
		{3.14, 8},
		{42, 8},
		{struct{}{}, 256},
	}
	for _, c := range cases {
		if got := SizeOf(c.v); got != c.want {
			t.Fatalf("SizeOf(%T) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestStateString(t *testing.T) {
	names := map[State]string{
		StateWaiting: "waiting", StateReady: "ready", StateProcessing: "processing",
		StateMemory: "memory", StateErred: "erred", StateExternal: "external",
	}
	for st, want := range names {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q", int(st), st.String())
		}
	}
}

// Property: an arbitrary random DAG evaluated on the cluster produces
// the same values as a local topological evaluation.
func TestRandomDAGMatchesLocalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(15) + 2
		g := taskgraph.New()
		type spec struct {
			deps []taskgraph.Key
			base float64
		}
		specs := map[taskgraph.Key]spec{}
		var keys []taskgraph.Key
		for i := 0; i < n; i++ {
			key := taskgraph.Key(fmt.Sprintf("n%03d", i))
			var deps []taskgraph.Key
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.3 {
					deps = append(deps, keys[j])
				}
			}
			base := float64(rng.Intn(7))
			specs[key] = spec{deps: deps, base: base}
			g.AddFn(key, deps, func(in []any) (any, error) {
				s := base
				for _, v := range in {
					s += v.(float64) * 1.5
				}
				return s, nil
			}, 1e-5)
			keys = append(keys, key)
		}
		// Local evaluation.
		local := map[taskgraph.Key]float64{}
		for _, k := range keys {
			sp := specs[k]
			s := sp.base
			for _, d := range sp.deps {
				s += local[d] * 1.5
			}
			local[k] = s
		}
		c, cl := testClusterQuick(3)
		defer c.Close()
		futs, err := cl.Submit(g, keys)
		if err != nil {
			return false
		}
		vals, err := cl.Gather(futs)
		if err != nil {
			return false
		}
		for i, k := range keys {
			if math.Abs(vals[i].(float64)-local[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
