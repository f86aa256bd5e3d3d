package multijob

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAdmitUnlimited(t *testing.T) {
	p := NewPlane(Limits{})
	var rels []func()
	for i := 0; i < 10; i++ {
		rel, err := p.Admit("job", 1<<20)
		if err != nil {
			t.Fatalf("Admit: %v", err)
		}
		rels = append(rels, rel)
	}
	if s := p.Stats(); s.Running != 10 || s.Admitted != 10 {
		t.Fatalf("stats = %+v, want 10 running/admitted", s)
	}
	for _, rel := range rels {
		rel()
	}
	if s := p.Stats(); s.Running != 0 || s.InUse != 0 {
		t.Fatalf("after release stats = %+v, want 0 running, 0 in use", s)
	}
}

func TestAdmitOverBudgetRejects(t *testing.T) {
	p := NewPlane(Limits{TenantBudget: 100, ClusterBudget: 1000})
	if lim := p.Limits(); lim.TenantBudget != 100 || lim.ClusterBudget != 1000 {
		t.Fatalf("Limits() = %+v, want the construction limits back", lim)
	}
	if _, err := p.Admit("big", 101); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("tenant-budget overflow: err = %v, want ErrOverBudget", err)
	}
	p2 := NewPlane(Limits{ClusterBudget: 50})
	if _, err := p2.Admit("big", 51); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("cluster-budget overflow: err = %v, want ErrOverBudget", err)
	}
	if _, err := p.Admit("neg", -1); err == nil {
		t.Fatal("negative estimate admitted")
	}
	if s := p.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
}

func TestAdmitConcurrencyGate(t *testing.T) {
	p := NewPlane(Limits{MaxConcurrent: 2})
	rel1, err := p.Admit("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := p.Admit("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		rel3, err := p.Admit("c", 0)
		if err != nil {
			t.Error(err)
		}
		close(got)
		rel3()
	}()
	select {
	case <-got:
		t.Fatal("third job admitted past MaxConcurrent=2")
	case <-time.After(20 * time.Millisecond):
	}
	if s := p.Stats(); s.Waiting != 1 || s.MaxQueue != 1 {
		t.Fatalf("stats = %+v, want one waiter", s)
	}
	rel1()
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("third job never admitted after a release")
	}
	rel2()
}

func TestAdmitBudgetBackpressure(t *testing.T) {
	p := NewPlane(Limits{ClusterBudget: 100})
	rel1, err := p.Admit("a", 70)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan struct{})
	go func() {
		rel2, err := p.Admit("b", 50)
		if err != nil {
			t.Error(err)
		}
		close(got)
		rel2()
	}()
	select {
	case <-got:
		t.Fatal("job admitted past the cluster budget")
	case <-time.After(20 * time.Millisecond):
	}
	rel1()
	select {
	case <-got:
	case <-time.After(time.Second):
		t.Fatal("job never admitted after budget freed")
	}
}

// TestAdmitFIFONoOvertake: a small job arriving behind a large queued
// job must not jump the queue even when it would fit — FIFO prevents
// big-job starvation.
func TestAdmitFIFONoOvertake(t *testing.T) {
	p := NewPlane(Limits{ClusterBudget: 100})
	relA, err := p.Admit("a", 80) // leaves headroom 20
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	started := make(chan string, 2)
	admit := func(name string, est int64) {
		rel, err := p.Admit(name, est)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		started <- name
		rel()
	}
	go admit("big", 90) // does not fit until a releases
	// Give "big" time to take the earlier ticket.
	for {
		if s := p.Stats(); s.Waiting == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	go admit("small", 10) // would fit now, but must wait behind big
	select {
	case name := <-started:
		t.Fatalf("%s admitted before the queue head", name)
	case <-time.After(20 * time.Millisecond):
	}
	relA()
	<-started
	<-started
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "big" || order[1] != "small" {
		t.Fatalf("admission order %v, want [big small]", order)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	p := NewPlane(Limits{MaxConcurrent: 1})
	rel, err := p.Admit("a", 10)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel()
	rel()
	if s := p.Stats(); s.Running != 0 || s.InUse != 0 {
		t.Fatalf("double release corrupted accounting: %+v", s)
	}
}

func TestNewPlanePanicsOnNegativeLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative limits")
		}
	}()
	NewPlane(Limits{MaxConcurrent: -1})
}
