// Package cluster models batch-scheduler node allocation and process
// placement for the simulated platform.
//
// The paper's runs were submitted through Slurm on Irene: each run gets an
// allocation of nodes whose physical location (leaf switch) is outside the
// user's control, and processes are laid out deterministically inside the
// allocation — "the scheduler is launched in the first node of the
// allocation and the client in the second node; the workers are launched
// starting from the third node, and then the simulation processes are
// launched in the rest of the nodes" (§3.3.2). Both facts matter for the
// reproduced figures: placement determines hop counts, and allocations
// differing between runs produce the per-rank variability of Figure 5.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"

	"deisago/internal/netsim"
)

// Machine is a whole supercomputer partition from which allocations are
// drawn. It owns the network fabric.
type Machine struct {
	fabric *netsim.Fabric
}

// NewMachine builds a machine with numNodes nodes of coresPerNode cores
// each (which must be positive; the harness model does the core-hour
// accounting) and the given fabric configuration.
func NewMachine(cfg netsim.Config, numNodes, coresPerNode int) *Machine {
	if coresPerNode <= 0 {
		panic("cluster: coresPerNode must be positive")
	}
	return &Machine{fabric: netsim.New(cfg, numNodes)}
}

// Fabric returns the machine's interconnect.
func (m *Machine) Fabric() *netsim.Fabric { return m.fabric }

// NumNodes returns the machine size.
func (m *Machine) NumNodes() int { return m.fabric.NumNodes() }

// Allocation is an ordered set of machine nodes granted to one run.
// Index 0 is "the first node of the allocation".
type Allocation struct {
	nodes []netsim.NodeID
}

// Allocate draws n distinct nodes from the machine. The choice is
// pseudo-random (seeded, reproducible) and returned in ascending node-ID
// order, matching how Slurm presents hostlists. Different seeds model
// different submissions; the same seed models Slurm handing back the same
// allocation, which the paper observed across some of its runs.
func (m *Machine) Allocate(n int, seed int64) *Allocation {
	if n <= 0 || n > m.NumNodes() {
		panic(fmt.Sprintf("cluster: cannot allocate %d of %d nodes", n, m.NumNodes()))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(m.NumNodes())[:n]
	sort.Ints(perm)
	nodes := make([]netsim.NodeID, n)
	for i, p := range perm {
		nodes[i] = netsim.NodeID(p)
	}
	return &Allocation{nodes: nodes}
}

// Size returns the number of allocated nodes.
func (a *Allocation) Size() int { return len(a.nodes) }

// Node maps an allocation-relative index to a physical node.
func (a *Allocation) Node(i int) netsim.NodeID {
	if i < 0 || i >= len(a.nodes) {
		panic(fmt.Sprintf("cluster: allocation index %d out of range [0,%d)", i, len(a.nodes)))
	}
	return a.nodes[i]
}

// Placement assigns every workflow process to a physical node following
// the paper's layout.
type Placement struct {
	SchedulerNode netsim.NodeID
	ClientNode    netsim.NodeID
	WorkerNodes   []netsim.NodeID // worker i runs on WorkerNodes[i]
	RankNodes     []netsim.NodeID // MPI rank r runs on RankNodes[r]
}

// Layout describes how many processes of each kind to place.
type Layout struct {
	Workers        int
	WorkersPerNode int
	Ranks          int
	RanksPerNode   int
}

// NodesNeeded returns the allocation size Layout requires: one node for
// the scheduler, one for the client, then worker nodes, then rank nodes.
func (l Layout) NodesNeeded() int {
	if l.WorkersPerNode <= 0 || l.RanksPerNode <= 0 {
		panic("cluster: processes-per-node must be positive")
	}
	w := (l.Workers + l.WorkersPerNode - 1) / l.WorkersPerNode
	r := (l.Ranks + l.RanksPerNode - 1) / l.RanksPerNode
	return 2 + w + r
}

// Place lays the workflow out on the allocation: scheduler on node 0,
// client on node 1, workers packed from node 2, simulation ranks packed
// after the workers.
func (a *Allocation) Place(l Layout) Placement {
	need := l.NodesNeeded()
	if a.Size() < need {
		panic(fmt.Sprintf("cluster: allocation of %d nodes, layout needs %d", a.Size(), need))
	}
	p := Placement{
		SchedulerNode: a.Node(0),
		ClientNode:    a.Node(1),
	}
	next := 2
	for i := 0; i < l.Workers; i++ {
		p.WorkerNodes = append(p.WorkerNodes, a.Node(next+i/l.WorkersPerNode))
	}
	next += (l.Workers + l.WorkersPerNode - 1) / l.WorkersPerNode
	for r := 0; r < l.Ranks; r++ {
		p.RankNodes = append(p.RankNodes, a.Node(next+r/l.RanksPerNode))
	}
	return p
}
