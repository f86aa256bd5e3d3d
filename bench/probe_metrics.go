package main

// Layer metrics = internal/metrics + the end-of-run sampling. Symbols touched:
//
//	metrics.NewRegistry, (*Registry).Snapshot
//	(*netsim.Fabric).UseMetrics, (*netsim.Fabric).RecordUtilization

import "deisago/internal/metrics"

// probeMetrics: metrics.finalize_us, the end-of-run sampling on a fabric
// that carried the workload's traffic.
func probeMetrics(p *prober) error {
	machine, place := newPlatform(p.w, p.seed)
	reg := metrics.NewRegistry()
	machine.Fabric().UseMetrics(reg)
	_, end := replayTraffic(p.w, machine.Fabric(), place, 0)
	p.timed("metrics.finalize", 1, func() {
		machine.Fabric().RecordUtilization(end)
		reg.Snapshot()
	})
	return nil
}
