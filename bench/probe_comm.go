package main

// Layer comm = internal/netsim + internal/vtime. Symbols touched:
//
//	(*netsim.Fabric).Transfer, (*netsim.Fabric).UseMetrics
//	metrics.NewRegistry

import (
	"deisago/internal/cluster"
	"deisago/internal/metrics"
	"deisago/internal/netsim"
)

// replayTraffic sends the workload's coupling traffic over the fabric:
// every rank ships one block of the job's size to its block's worker,
// once per step from the virtual time origin on. It returns the number of
// transfers and the virtual time the last one arrived.
func replayTraffic(w *workload, fabric *netsim.Fabric, place cluster.Placement, origin float64) (int, float64) {
	n, end := 0, origin
	for _, j := range w.jobs {
		for t := 0; t < j.steps; t++ {
			for r := 0; r < j.ranks; r++ {
				from := place.RankNodes[j.firstRank+r]
				to := place.WorkerNodes[r%w.workers]
				end = max(end, fabric.Transfer(from, to, j.block, origin+float64(t)))
				n++
			}
		}
	}
	return n, end
}

// probeComm: comm.transfer_ns, comm.transfer_allocs on an instrumented
// fabric, as every run's fabric is.
func probeComm(p *prober) error {
	machine, place := newPlatform(p.w, p.seed)
	machine.Fabric().UseMetrics(metrics.NewRegistry())
	n, end := replayTraffic(p.w, machine.Fabric(), place, 0) // resolves the links' instruments
	// A small workload's traffic is replayed until a batch holds about a
	// thousand transfers, so that the clock reads do not show.
	reps := max(1, 1024/n)
	p.timed("comm.transfer", n*reps, func() {
		for i := 0; i < reps; i++ {
			_, end = replayTraffic(p.w, machine.Fabric(), place, end)
		}
	})
	return nil
}
