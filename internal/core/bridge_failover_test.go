package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deisago/internal/dask"
	"deisago/internal/metrics"
	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
)

// TestFailoverSkipsPausedWorker pins the bridge's failover policy: when
// the preselected worker is dead, the (worker+k) mod N scan must pass
// over live workers paused at their memory watermark and land on the
// next unpaused one, so backpressured workers don't absorb re-routed
// publishes on top of their existing load.
func TestFailoverSkipsPausedWorker(t *testing.T) {
	cluster := testCluster(t, 3)

	// Worker 1 — the first failover candidate after worker 0 — holds a
	// 32-byte block and is squeezed to a 32-byte limit for the whole
	// run, parking it above the 0.8 watermark.
	aux := cluster.NewClient("aux", 1, math.Inf(1))
	if err := aux.Scatter([]dask.ScatterItem{{Key: "ballast", Value: []float64{1, 2, 3, 4}}}, false, 1); err != nil {
		t.Fatal(err)
	}
	cluster.SetWorkerMemoryWindow(1, 32, 0, -1)
	if !cluster.WorkerPaused(1, aux.Now()) {
		t.Fatal("worker 1 should be paused at 32/32 bytes")
	}

	va := &VirtualArray{Name: "G_f", Size: []int{1, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
		PlaceWorker: func(_ *VirtualArray, _ []int, _ int) int { return 0 }})
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}

	var got float64
	var wg sync.WaitGroup
	errs := make(chan error, 2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, _ := set.Get("G_f")
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
		// The placement target dies before the publish; the failover
		// scan starts at worker 1 (paused) and must settle on worker 2.
		if err := cluster.KillWorker(0, now); err != nil {
			errs <- err
			return
		}
		blk := ndarray.New(1, 2, 2)
		blk.Fill(2)
		if _, _, err := b.Publish("G_f", []int{0, 0, 0}, blk, now); err != nil {
			errs <- err
			return
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

	if got := workerMemory(cluster, 1); got != 32 {
		t.Fatalf("paused worker 1 absorbed the failover: %v resident bytes, want only its 32-byte ballast", got)
	}
	if workerMemory(cluster, 2) == 0 {
		t.Fatal("worker 2 holds nothing; the failover did not land there")
	}
}

// TestRepublishLostToPausedReplacement covers the compound failure the
// acceptance criteria call out: a published block's worker dies, and at
// republish time the only replacement worker is itself paused at its
// memory watermark. The republish must take the paused worker anyway
// (there is no unpaused candidate), absorb the refusal through the
// retry/backoff loop — which carries the bridge clock past the squeeze
// window — and land the block on the retry.
func TestRepublishLostToPausedReplacement(t *testing.T) {
	cluster := testCluster(t, 2)

	// Worker 1 — the only replacement once worker 0 dies — holds a
	// 32-byte ballast block; a squeeze window installed below (anchored
	// to the publish completion time) parks it above the 0.8 watermark
	// for the first republish attempt.
	aux := cluster.NewClient("aux", 1, math.Inf(1))
	if err := aux.Scatter([]dask.ScatterItem{{Key: "ballast", Value: []float64{1, 2, 3, 4}}}, false, 1); err != nil {
		t.Fatal(err)
	}

	va := &VirtualArray{Name: "G_f", Size: []int{1, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
		PlaceWorker: func(_ *VirtualArray, _ []int, _ int) int { return 0 }})
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}

	var got float64
	var wg sync.WaitGroup
	errs := make(chan error, 2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, _ := set.Get("G_f")
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
		// First publish lands on the healthy worker 0; the kill then
		// reverts the key to external and RepublishLost must re-send it.
		blk := ndarray.New(1, 2, 2)
		blk.Fill(2)
		sentAt, _, err := b.Publish("G_f", []int{0, 0, 0}, blk, now)
		if err != nil {
			errs <- err
			return
		}
		if err := cluster.KillWorker(0, sentAt); err != nil {
			errs <- err
			return
		}
		// Squeeze the replacement below the block size until well after
		// the republish attempt: even a full spill of the 32-byte
		// ballast cannot fit a 32-byte block under a 16-byte window, so
		// the first republish attempt is refused with ErrWorkerPaused
		// and the retry loop must carry the clock past the window
		// before landing the block.
		cluster.SetWorkerMemoryWindow(1, 16, 0, sentAt+4)
		if !cluster.WorkerPaused(1, sentAt) {
			errs <- fmt.Errorf("worker 1 should be paused at 32/16 bytes at republish time")
			return
		}
		n, err := b.RepublishLost(sentAt)
		if err != nil {
			errs <- err
			return
		}
		if n != 1 {
			errs <- fmt.Errorf("republished %d blocks, want 1", n)
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

	// The paused replacement refused at least once before the window
	// closed; the refusal carried the clock past the squeeze, so the
	// retry landed the block on worker 1 (the only live worker).
	retries, republished := b.RetryStats()
	if retries < 1 {
		t.Fatalf("retries = %d, want >= 1 (paused worker must have refused the first attempt)", retries)
	}
	if republished != 1 {
		t.Fatalf("republished = %d, want 1", republished)
	}
	// The refused attempt spilled the ballast trying to make room; the
	// republished block itself is resident after the window closed.
	if got := workerMemory(cluster, 1); got < 32 {
		t.Fatalf("worker 1 holds %v resident bytes, want >= 32 (republished block)", got)
	}
}

// workerMemory reads a worker's resident object-store bytes from its
// worker/memory_bytes gauge.
func workerMemory(c *dask.Cluster, id int) float64 {
	return c.Metrics().Gauge("worker", "memory_bytes", metrics.LInt("id", id)).Value()
}
