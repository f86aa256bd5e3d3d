package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// interceptFunc adapts a function to the PublishInterceptor interface.
type interceptFunc func(rank, step, attempt int, key taskgraph.Key, now vtime.Time) PublishFault

func (f interceptFunc) OnPublish(rank, step, attempt int, key taskgraph.Key, now vtime.Time) PublishFault {
	return f(rank, step, attempt, key, now)
}

// retryBridge builds an external-mode bridge over a fresh cluster with
// the external future for the single test block already registered, so
// tests can exercise the publish retry loop directly without the full
// contract handshake.
func retryBridge(t *testing.T, nWorkers int, tweak func(*BridgeConfig)) (*dask.Cluster, *Bridge, *dask.Client, []*dask.Future, *ndarray.Array) {
	t.Helper()
	cluster := testCluster(t, nWorkers)
	cluster.EnableAudit()
	va := &VirtualArray{Name: "G_y", Size: []int{1, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	cfg := BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal}
	if tweak != nil {
		tweak(&cfg)
	}
	b := NewBridge(cfg)
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}
	contract := NewContract()
	contract.Add("G_y", [][]int{{-1, 0, 0}})
	b.forceReady(contract)

	ana := cluster.NewClient("analytics", 1, math.Inf(1))
	futs, err := ana.ExternalFutures([]taskgraph.Key{va.BlockKey([]int{0, 0, 0})})
	if err != nil {
		t.Fatal(err)
	}
	blk := ndarray.New(1, 2, 2)
	blk.Fill(3)
	return cluster, b, ana, futs, blk
}

// TestPublishRetriesDroppedAttempts drops the first two attempts of a
// publish and expects the backoff loop to deliver on the third.
func TestPublishRetriesDroppedAttempts(t *testing.T) {
	_, b, ana, futs, blk := retryBridge(t, 1, func(cfg *BridgeConfig) {
		cfg.Interceptor = interceptFunc(func(_, _, attempt int, _ taskgraph.Key, _ vtime.Time) PublishFault {
			return PublishFault{Drop: attempt < 2}
		})
	})
	before := ana.Now()
	now, sent, err := b.Publish("G_y", []int{0, 0, 0}, blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("block not sent")
	}
	retries, _ := b.RetryStats()
	if retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
	// Two backoff sleeps (base + doubled) must have advanced virtual time.
	if now < before+3e-3 {
		t.Fatalf("backoff did not advance virtual time: %v -> %v", before, now)
	}
	if err := ana.Wait(futs); err != nil {
		t.Fatal(err)
	}
}

// TestPublishFailsOverToLiveWorker kills the preselected worker before
// the publish; the bridge must deterministically place the block on the
// next live worker with no retries spent.
func TestPublishFailsOverToLiveWorker(t *testing.T) {
	cluster, b, ana, futs, blk := retryBridge(t, 2, func(cfg *BridgeConfig) {
		cfg.PlaceWorker = func(_ *VirtualArray, _ []int, _ int) int { return 0 }
	})
	if err := cluster.KillWorker(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, sent, err := b.Publish("G_y", []int{0, 0, 0}, blk, 0); err != nil || !sent {
		t.Fatalf("publish after preselected-worker death: sent=%v err=%v", sent, err)
	}
	if err := ana.Wait(futs); err != nil {
		t.Fatal(err)
	}
	if retries, _ := b.RetryStats(); retries != 0 {
		t.Fatalf("failover should not consume retries, got %d", retries)
	}
}

// TestPublishExhaustsRetries drops every attempt and expects a terminal
// error that wraps ErrPublishDropped and names the attempt budget.
func TestPublishExhaustsRetries(t *testing.T) {
	_, b, _, _, blk := retryBridge(t, 1, func(cfg *BridgeConfig) {
		cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 1e-3, Timeout: 1e9}
		cfg.Interceptor = interceptFunc(func(_, _, _ int, _ taskgraph.Key, _ vtime.Time) PublishFault {
			return PublishFault{Drop: true}
		})
	})
	_, _, err := b.Publish("G_y", []int{0, 0, 0}, blk, 0)
	if err == nil {
		t.Fatal("publish with every attempt dropped succeeded")
	}
	if !errors.Is(err, ErrPublishDropped) {
		t.Fatalf("error does not wrap ErrPublishDropped: %v", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report the attempt budget: %v", err)
	}
	if retries, _ := b.RetryStats(); retries != 2 {
		t.Fatalf("retries = %d, want 2", retries)
	}
}

// TestPublishTimesOut bounds the retry loop by virtual time rather than
// attempt count: with a base backoff exceeding the timeout, the second
// attempt is never tried.
func TestPublishTimesOut(t *testing.T) {
	_, b, _, _, blk := retryBridge(t, 1, func(cfg *BridgeConfig) {
		cfg.Retry = RetryPolicy{MaxAttempts: 10, BaseBackoff: 5, Timeout: 2}
		cfg.Interceptor = interceptFunc(func(_, _, _ int, _ taskgraph.Key, _ vtime.Time) PublishFault {
			return PublishFault{Drop: true}
		})
	})
	_, _, err := b.Publish("G_y", []int{0, 0, 0}, blk, 0)
	if err == nil {
		t.Fatal("publish past its timeout succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("error does not report the timeout: %v", err)
	}
}

// TestRepublishLostRecoversKilledOwner publishes a block, kills its
// owner (reverting the task to the external state), and expects
// RepublishLost to re-scatter exactly that block onto a survivor.
func TestRepublishLostRecoversKilledOwner(t *testing.T) {
	cluster, b, ana, futs, blk := retryBridge(t, 2, func(cfg *BridgeConfig) {
		cfg.PlaceWorker = func(_ *VirtualArray, _ []int, _ int) int { return 0 }
	})
	now, sent, err := b.Publish("G_y", []int{0, 0, 0}, blk, 0)
	if err != nil || !sent {
		t.Fatalf("publish: sent=%v err=%v", sent, err)
	}
	key := taskgraph.Key("deisa-G_y-0.0.0")
	if st, ok := cluster.TaskState(key); !ok || st != dask.StateMemory {
		t.Fatalf("published block state = %v, %v", st, ok)
	}
	if err := cluster.KillWorker(0, now); err != nil {
		t.Fatal(err)
	}
	if st, _ := cluster.TaskState(key); st != dask.StateExternal {
		t.Fatalf("state after owner death = %v, want external", st)
	}
	n, err := b.RepublishLost(now)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("republished %d blocks, want 1", n)
	}
	if st, _ := cluster.TaskState(key); st != dask.StateMemory {
		t.Fatalf("state after republish = %v, want memory", st)
	}
	if _, republished := b.RetryStats(); republished != 1 {
		t.Fatalf("republish counter = %d, want 1", republished)
	}
	if err := ana.Wait(futs); err != nil {
		t.Fatal(err)
	}
	// Nothing left to recover: a second sweep is a no-op.
	if n, err := b.RepublishLost(now); err != nil || n != 0 {
		t.Fatalf("second sweep: n=%d err=%v", n, err)
	}
}

// RetryStats returns how many publish attempts were retried and how many
// lost blocks were republished, from the same shared series as Stats.
func (b *Bridge) RetryStats() (retries, republished int64) {
	return b.mRetries.Load(), b.mRepublished.Load()
}

// forceReady marks the bridge initialized with an existing contract, so a
// test can re-create a bridge after a failure without re-running the
// contract handshake.
func (b *Bridge) forceReady(contract *Contract) {
	b.contract = contract
	b.ready = true
}
