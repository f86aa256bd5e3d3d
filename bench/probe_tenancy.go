package main

// Layer tenancy = the dask tenants (fair queuing, key namespaces). The
// admission plane of internal/multijob has no host-time cost worth a probe.
// Symbols touched: (*dask.Cluster).RegisterTenant.

import "fmt"

// tenantSlots is how many tenants the probe registers.
const tenantSlots = 8

// probeTenancy: tenancy.drive_ns_per_task — the sched probe on a cluster
// with eight registered tenants and namespaced keys. A workload without
// tenants drives its graph as tenant t0 of the eight.
func probeTenancy(p *prober) error {
	w := *p.w
	w.jobs = append([]job(nil), p.w.jobs...)
	for i := range w.jobs {
		if w.jobs[i].name == "" {
			w.jobs[i].name = "t0"
		}
	}
	dc, place := newCluster(&w, p.seed)
	defer dc.Close()
	for i := 0; i < tenantSlots; i++ {
		if err := dc.RegisterTenant(fmt.Sprintf("t%d", i), float64(1+i%3)); err != nil {
			return err
		}
	}
	return driveGraphs(p, &w, "tenancy", dc, place)
}
