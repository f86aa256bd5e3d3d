package main

// Layer sched = the dask scheduler, driven through a Client. The workers'
// host time sits inside the drive numbers: nothing outside the package can
// split a task's execution from its scheduling. Symbols touched:
//
//	dask.NewCluster, (*Cluster).Close, (*Cluster).NewClient, dask.Config.Metrics
//	(*Client).ExternalFutures, (*Client).Submit, (*Client).Scatter, (*Client).Wait
//	dask.ScatterItem, dask.Future
//	harness.DefaultModel (Dask, MetaEntryCost)

import (
	"math"

	"deisago/internal/cluster"
	"deisago/internal/dask"
	"deisago/internal/harness"
	"deisago/internal/metrics"
	"deisago/internal/ndarray"
)

// newCluster starts a dask cluster on a fresh platform, instrumented as
// the harness instruments every run's. The caller closes it.
func newCluster(w *workload, seed int64) (*dask.Cluster, cluster.Placement) {
	machine, place := newPlatform(w, seed)
	m := harness.DefaultModel()
	reg := metrics.NewRegistry()
	machine.Fabric().UseMetrics(reg)
	cfg := m.Dask
	cfg.MetadataEntryCost = m.MetaEntryCost
	cfg.Metrics = reg
	return dask.NewCluster(machine.Fabric(), cfg, place.SchedulerNode, place.WorkerNodes), place
}

// driveGraphs submits w's graphs ahead of their data, then
// scatters every external block and waits for the targets — one client
// doing what the analytics client and the bridges do in a run. The timed
// sections are named <prefix>.submit and <prefix>.drive.
func driveGraphs(p *prober, w *workload, prefix string, dc *dask.Cluster, place cluster.Placement) error {
	graphs, tasks := buildGraphs(w)
	client := dc.NewClient("probe", place.ClientNode, math.Inf(1))
	futs := make([][]*dask.Future, len(graphs))
	var err error
	p.timed(prefix+".submit", tasks, func() {
		for i, a := range graphs {
			if _, err = client.ExternalFutures(a.externals); err != nil {
				return
			}
			if futs[i], err = client.Submit(a.g, a.targets); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	block := ndarray.New(1, w.realX, w.realY)
	jobs := w.graphJobs()
	p.timed(prefix+".drive", tasks, func() {
		item := make([]dask.ScatterItem, 1)
		for i, a := range graphs {
			for n, key := range a.externals {
				item[0] = dask.ScatterItem{Key: key, Value: block, Bytes: jobs[i].block}
				if err = client.Scatter(item, true, n%jobs[i].ranks%w.workers); err != nil {
					return
				}
			}
		}
		for _, f := range futs {
			if err = client.Wait(f); err != nil {
				return
			}
		}
	})
	return err
}

// probeSched: sched.submit_ns_per_task, sched.submit_allocs_per_task,
// sched.drive_ns_per_task, sched.drive_allocs_per_task.
func probeSched(p *prober) error {
	dc, place := newCluster(p.w, p.seed)
	defer dc.Close()
	return driveGraphs(p, p.w, "sched", dc, place)
}
