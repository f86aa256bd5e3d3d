package dask

import (
	"fmt"
	"testing"

	"deisago/internal/taskgraph"
)

// fairShareBacklog builds a contended ready-queue backlog of 8 weighted
// tenants × 64 tasks, warmed by one push/pop round so every tenant heap
// is at capacity. It returns the scheduler locked and a function that
// pushes and pops the whole backlog once through
// pushReadyLocked/popReadyLocked — the start-time fair-queueing pick, the
// per-tenant heap ops and the service accounting. The caller must call
// done.
func fairShareBacklog(tb testing.TB) (round func(), done func()) {
	const tenants, perTenant = 8, 64
	c, _ := testClusterQuick(1)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("ten%d", i)
		if err := c.RegisterTenant(names[i], float64(1+i%4)); err != nil {
			c.Close()
			tb.Fatal(err)
		}
	}
	s := c.sched
	s.mu.Lock()
	ids := make([]taskID, 0, tenants*perTenant)
	for _, n := range names {
		for j := 0; j < perTenant; j++ {
			ids = append(ids, s.internLocked(taskgraph.Key(fmt.Sprintf("%s/k%04d", n, j))))
		}
	}
	round = func() {
		for _, id := range ids {
			s.pushReadyLocked(0, id)
		}
		for range ids {
			s.popReadyLocked()
		}
	}
	round()
	return round, func() {
		s.mu.Unlock()
		c.Close()
	}
}

// TestFairSharePopZeroAlloc pins the tenant-aware ready-queue hot path
// allocation free: admission-rate fairness must not put a per-task
// allocation on the scheduler's critical section.
func TestFairSharePopZeroAlloc(t *testing.T) {
	round, done := fairShareBacklog(t)
	defer done()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Fatalf("8-tenant push/pop round allocates %v times, want 0", avg)
	}
}

// BenchmarkFairSharePop measures one push/pop round of the
// fairShareBacklog.
func BenchmarkFairSharePop(b *testing.B) {
	round, done := fairShareBacklog(b)
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
