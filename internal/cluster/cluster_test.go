package cluster

import (
	"testing"
	"testing/quick"

	"deisago/internal/netsim"
)

func testMachine(nodes int) *Machine {
	cfg := netsim.Config{
		NodesPerSwitch:  4,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	return NewMachine(cfg, nodes, 48)
}

func TestAllocateDistinctSorted(t *testing.T) {
	m := testMachine(64)
	a := m.Allocate(16, 3)
	if a.Size() != 16 {
		t.Fatalf("Size = %d", a.Size())
	}
	seen := map[netsim.NodeID]bool{}
	prev := netsim.NodeID(-1)
	for i := 0; i < a.Size(); i++ {
		n := a.Node(i)
		if seen[n] {
			t.Fatalf("duplicate node %d", n)
		}
		seen[n] = true
		if n <= prev {
			t.Fatalf("nodes not sorted: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestAllocateReproducible(t *testing.T) {
	m := testMachine(64)
	a := m.Allocate(8, 42)
	b := m.Allocate(8, 42)
	for i := 0; i < 8; i++ {
		if a.Node(i) != b.Node(i) {
			t.Fatal("same seed gave different allocations")
		}
	}
	c := m.Allocate(8, 43)
	same := true
	for i := 0; i < 8; i++ {
		if a.Node(i) != c.Node(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical allocations (suspicious)")
	}
}

func TestAllocateWholeMachine(t *testing.T) {
	m := testMachine(8)
	a := m.Allocate(8, 1)
	for i := 0; i < 8; i++ {
		if a.Node(i) != netsim.NodeID(i) {
			t.Fatalf("whole-machine allocation should be identity, got Node(%d)=%d", i, a.Node(i))
		}
	}
}

func TestLayoutNodesNeeded(t *testing.T) {
	l := Layout{Workers: 5, WorkersPerNode: 2, Ranks: 8, RanksPerNode: 2}
	// 2 + ceil(5/2)=3 + ceil(8/2)=4 -> 9
	if got := l.NodesNeeded(); got != 9 {
		t.Fatalf("NodesNeeded = %d, want 9", got)
	}
}

func TestPlaceLayout(t *testing.T) {
	m := testMachine(32)
	l := Layout{Workers: 4, WorkersPerNode: 2, Ranks: 6, RanksPerNode: 2}
	a := m.Allocate(l.NodesNeeded(), 1)
	p := a.Place(l)
	if p.SchedulerNode != a.Node(0) {
		t.Fatal("scheduler not on first node")
	}
	if p.ClientNode != a.Node(1) {
		t.Fatal("client not on second node")
	}
	if len(p.WorkerNodes) != 4 || len(p.RankNodes) != 6 {
		t.Fatalf("lengths: %d workers %d ranks", len(p.WorkerNodes), len(p.RankNodes))
	}
	// Workers 0,1 share node 2; workers 2,3 share node 3.
	if p.WorkerNodes[0] != a.Node(2) || p.WorkerNodes[1] != a.Node(2) ||
		p.WorkerNodes[2] != a.Node(3) || p.WorkerNodes[3] != a.Node(3) {
		t.Fatalf("worker packing wrong: %v", p.WorkerNodes)
	}
	// Ranks start after worker nodes (node 4).
	if p.RankNodes[0] != a.Node(4) || p.RankNodes[1] != a.Node(4) || p.RankNodes[2] != a.Node(5) {
		t.Fatalf("rank packing wrong: %v", p.RankNodes)
	}
}

func TestPlacePanicsWhenTooSmall(t *testing.T) {
	m := testMachine(32)
	a := m.Allocate(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Place on undersized allocation did not panic")
		}
	}()
	a.Place(Layout{Workers: 4, WorkersPerNode: 1, Ranks: 4, RanksPerNode: 1})
}

// Property: any valid layout placed on a big-enough allocation assigns
// every process to an allocated node, with no more than the configured
// processes per node.
func TestPlaceQuick(t *testing.T) {
	m := testMachine(256)
	f := func(w, r uint8) bool {
		l := Layout{
			Workers:        int(w%16) + 1,
			WorkersPerNode: 2,
			Ranks:          int(r%32) + 1,
			RanksPerNode:   2,
		}
		a := m.Allocate(l.NodesNeeded(), int64(w)*31+int64(r))
		p := a.Place(l)
		alloc := map[netsim.NodeID]int{}
		for _, n := range a.nodes {
			alloc[n] = 0
		}
		for _, n := range p.WorkerNodes {
			if _, ok := alloc[n]; !ok {
				return false
			}
			alloc[n]++
			if alloc[n] > 2 {
				return false
			}
		}
		perNode := map[netsim.NodeID]int{}
		for _, n := range p.RankNodes {
			if _, ok := alloc[n]; !ok {
				return false
			}
			perNode[n]++
			if perNode[n] > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatePanics(t *testing.T) {
	m := testMachine(4)
	for name, fn := range map[string]func(){
		"zero":     func() { m.Allocate(0, 1) },
		"too many": func() { m.Allocate(5, 1) },
		"bad idx":  func() { m.Allocate(2, 1).Node(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
