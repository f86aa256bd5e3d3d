package main

// Layer platform = internal/cluster + netsim.New. Symbols touched:
//
//	harness.DefaultModel (Net, MachineNodes, CoresPerNode, RanksPerNode, WorkersPerNode)
//	cluster.NewMachine, (*Machine).Allocate, (*Machine).Fabric
//	cluster.Layout, Layout.NodesNeeded, (*Allocation).Place, cluster.Placement

import (
	"deisago/internal/cluster"
	"deisago/internal/harness"
)

// platformBuilds is how many platforms one batch builds.
const platformBuilds = 16

// newPlatform builds the machine one run of the workload allocates from
// and lays its processes out, as the harness does at the start of a run.
func newPlatform(w *workload, seed int64) (*cluster.Machine, cluster.Placement) {
	m := harness.DefaultModel()
	ranks := 0
	for _, j := range w.jobs {
		ranks = max(ranks, j.firstRank+j.ranks)
	}
	layout := cluster.Layout{Workers: w.workers, WorkersPerNode: m.WorkersPerNode,
		Ranks: ranks, RanksPerNode: m.RanksPerNode}
	net := m.Net
	net.Seed = seed
	machine := cluster.NewMachine(net, max(m.MachineNodes, layout.NodesNeeded()), m.CoresPerNode)
	return machine, machine.Allocate(layout.NodesNeeded(), seed).Place(layout)
}

// probePlatform: platform.build_us, platform.build_allocs.
func probePlatform(p *prober) error {
	p.timed("platform.build", platformBuilds, func() {
		for i := 0; i < platformBuilds; i++ {
			newPlatform(p.w, p.seed+int64(i))
		}
	})
	return nil
}
