package multijob

import (
	"sync"
	"testing"
	"time"
)

func TestAdmitUnlimited(t *testing.T) {
	p := NewPlane(0)
	var rels []func()
	for i := 0; i < 10; i++ {
		rels = append(rels, p.Admit())
	}
	if s := p.Stats(); s.Running != 10 || s.Admitted != 10 {
		t.Fatalf("stats = %+v, want 10 running/admitted", s)
	}
	for _, rel := range rels {
		rel()
	}
	if s := p.Stats(); s.Running != 0 {
		t.Fatalf("after release stats = %+v, want 0 running", s)
	}
}

func TestAdmitConcurrencyGate(t *testing.T) {
	p := NewPlane(2)
	rel1 := p.Admit()
	rel2 := p.Admit()
	got := make(chan struct{})
	go func() {
		rel3 := p.Admit()
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

// TestAdmitFIFONoOvertake: two jobs queued behind a full plane are
// admitted in arrival order, the earlier one first, when slots free.
func TestAdmitFIFONoOvertake(t *testing.T) {
	p := NewPlane(1)
	relA := p.Admit()
	var mu sync.Mutex
	var order []string
	started := make(chan string, 2)
	admit := func(name string) {
		rel := p.Admit()
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
		started <- name
		rel()
	}
	waiters := func(n int) {
		for p.Stats().Waiting != n {
			time.Sleep(time.Millisecond)
		}
	}
	go admit("first")
	waiters(1) // "first" holds the earlier ticket
	go admit("second")
	waiters(2)
	select {
	case name := <-started:
		t.Fatalf("%s admitted while the only slot was taken", name)
	case <-time.After(20 * time.Millisecond):
	}
	relA()
	<-started
	<-started
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("admission order %v, want [first second]", order)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	p := NewPlane(1)
	rel := p.Admit()
	rel()
	rel()
	rel()
	if s := p.Stats(); s.Running != 0 {
		t.Fatalf("double release corrupted accounting: %+v", s)
	}
}

func TestNewPlanePanicsOnNegativeLimits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative limits")
		}
	}()
	NewPlane(-1)
}
