package core

import (
	"math"
	"sync"
	"testing"

	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
)

// TestCorruptBlockFailsGracefully injects a malformed block (wrong type
// downstream expectations) into an external-task workflow: the dependent
// task errs, the error propagates through the scheduler to the analytics
// Gather, and nothing deadlocks.
func TestCorruptBlockFailsGracefully(t *testing.T) {
	cluster := testCluster(t, 1)
	va := &VirtualArray{Name: "G_x", Size: []int{1, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal})
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}

	var gatherErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			gatherErr = err
			return
		}
		da, _ := set.Get("G_x")
		da.SelectAll()
		if _, err := set.ValidateContract(); err != nil {
			gatherErr = err
			return
		}
		g := taskgraph.New()
		// This task requires a 3-d block and slices beyond the corrupt
		// block's extent, erring at execution time.
		g.AddFn("use", da.Keys(), func(in []any) (any, error) {
			arr := in[0].(*ndarray.Array)
			return arr.At(0, 1, 1), nil // panics → recovered? no: error path below
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"use"})
		if err != nil {
			gatherErr = err
			return
		}
		_, gatherErr = d.Client().Gather(futs)
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		now, err := b.Init(0)
		if err != nil {
			t.Error(err)
			return
		}
		// Publish a block of the wrong shape (1×1×1 instead of 1×2×2).
		corrupt := ndarray.New(1, 1, 1)
		if _, _, err := b.Publish("G_x", []int{0, 0, 0}, corrupt, now); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if gatherErr == nil {
		t.Fatal("corrupt block did not surface an error")
	}
}

// TestWorkerFailureRepublish exercises the deisa-level recovery path: a
// worker dies after receiving a block; the external task returns to the
// external state, the bridge publishes the same block again (to a
// surviving worker), and the pending analytics completes.
func TestWorkerFailureRepublish(t *testing.T) {
	cluster := testCluster(t, 2)
	va := &VirtualArray{Name: "G_r", Size: []int{1, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
		PlaceWorker: func(_ *VirtualArray, _ []int, _ int) int { return 0 }})
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}

	var got float64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	ready := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, _ := set.Get("G_r")
		da.SelectAll()
		if _, err := set.ValidateContract(); err != nil {
			errs <- err
			return
		}
		g := taskgraph.New()
		g.AddFn("s", da.Keys(), func(in []any) (any, error) {
			return in[0].(*ndarray.Array).Sum(), nil
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"s"})
		if err != nil {
			errs <- err
			return
		}
		close(ready)
		vals, err := d.Client().Gather(futs)
		if err != nil {
			errs <- err
			return
		}
		got = vals[0].(float64)
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		now, err := b.Init(0)
		if err != nil {
			errs <- err
			return
		}
		blk := ndarray.New(1, 2, 2)
		blk.Fill(2)
		now, _, err = b.Publish("G_r", []int{0, 0, 0}, blk, now)
		if err != nil {
			errs <- err
			return
		}
		<-ready
		// The worker holding the block dies before (or while) the task
		// runs; recovery: republish to the survivor.
		if err := cluster.KillWorker(0, now); err != nil {
			errs <- err
			return
		}
		// Publishing the same position again is legal: the external task
		// returned to the external state.
		b2 := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
			HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
			PlaceWorker: func(_ *VirtualArray, _ []int, _ int) int { return 1 }})
		if err := b2.DeclareArray(va); err != nil {
			errs <- err
			return
		}
		b2.forceReady(b.contract)
		if _, _, err := b2.Publish("G_r", []int{0, 0, 0}, blk, now); err != nil {
			// The task may have completed before the kill; a "not in
			// external state" error then is acceptable.
			t.Logf("republish: %v (task may have finished pre-kill)", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got != 8 {
		t.Fatalf("sum = %v, want 8", got)
	}
}
