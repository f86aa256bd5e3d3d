package dask

import (
	"fmt"
	"sync"

	"deisago/internal/metrics"
	"deisago/internal/netsim"
	"deisago/internal/pfs"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// Cluster is one Dask deployment: a scheduler, its workers, and the
// fabric they communicate over. Clients are created per producer/consumer
// process with NewClient.
type Cluster struct {
	cfg    Config
	fabric *netsim.Fabric
	reg    *metrics.Registry

	schedNode netsim.NodeID
	sched     *scheduler
	workers   []*worker
	spill     *pfs.FS // spill tier for memory governance (never nil)

	traceMu sync.Mutex
	trace   *tracer
}

// NewCluster starts a cluster with the scheduler on schedNode and one
// worker per entry of workerNodes. Worker goroutines run until Close.
func NewCluster(fabric *netsim.Fabric, cfg Config, schedNode netsim.NodeID, workerNodes []netsim.NodeID) *Cluster {
	if len(workerNodes) == 0 {
		panic("dask: cluster needs at least one worker")
	}
	c := &Cluster{cfg: cfg, fabric: fabric, schedNode: schedNode}
	c.reg = cfg.Metrics
	if c.reg == nil {
		c.reg = metrics.NewRegistry()
	}
	c.spill = cfg.SpillFS
	if c.spill == nil {
		// Private spill tier so governance works out of the box. It is
		// deliberately not attached to the metrics registry: the
		// memory/spilled_bytes counter already accounts spill traffic,
		// and a harness that wants pfs-level instruments passes its own
		// SpillFS.
		c.spill = pfs.New(pfs.DefaultConfig())
	}
	c.sched = newScheduler(c)
	if auditEnvEnabled() {
		c.sched.audit = &auditor{released: map[taskID]bool{}}
	}
	for i, n := range workerNodes {
		w := newWorker(c, i, n)
		c.workers = append(c.workers, w)
		go w.run()
	}
	return c
}

// Close stops all worker goroutines. The cluster must not be used after
// Close.
func (c *Cluster) Close() {
	for _, w := range c.workers {
		w.stop()
	}
}

// NumWorkers returns the number of workers.
func (c *Cluster) NumWorkers() int { return len(c.workers) }

// SchedulerNode returns the scheduler's fabric node.
func (c *Cluster) SchedulerNode() netsim.NodeID { return c.schedNode }

// TaskStates returns the number of scheduler tasks in each state — the
// information a Dask dashboard's task-stream panel summarizes.
func (c *Cluster) TaskStates() map[State]int { return c.sched.stateCounts() }

// TaskState reports the scheduler state of one key, and whether the key
// is registered at all. Producers use it to detect external data lost
// with a worker (the key reverts to StateExternal) and republish.
func (c *Cluster) TaskState(key taskgraph.Key) (State, bool) { return c.sched.taskState(key) }

// WorkerStatsAll snapshots every worker's monitoring stats.
func (c *Cluster) WorkerStatsAll() []WorkerStats {
	out := make([]WorkerStats, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.stats()
	}
	return out
}

// SchedulerBusy returns the scheduler CPU's accumulated virtual service
// time — the overload signal behind the paper's DEISA1 analysis.
func (c *Cluster) SchedulerBusy() float64 { return c.sched.cpu.Busy() }

// Metrics returns the cluster's metrics registry (never nil).
func (c *Cluster) Metrics() *metrics.Registry { return c.reg }

// RecordUtilization closes the run's gauges: it forces the throttled
// fairness gauges (tenant share and resident bytes, Jain index) to
// their final values, then samples end-of-run occupancy at virtual time
// at: scheduler CPU busy fraction and per-worker CPU busy fraction.
// Call once after the workload has drained, with at >= the last event.
func (c *Cluster) RecordUtilization(at vtime.Time) {
	s := c.sched
	s.mu.Lock()
	if s.jainG != nil {
		s.flushTenantGaugesLocked()
	}
	s.mu.Unlock()
	if at <= 0 {
		return
	}
	c.reg.Gauge("scheduler", "cpu_utilization").Set(c.sched.cpu.Busy()/at, at)
	for _, w := range c.workers {
		c.reg.Gauge("worker", "cpu_utilization", metrics.LInt("id", w.id)).
			Set(w.cpu.Busy()/at, at)
	}
}

// Config returns the cluster's cost-model configuration.
func (c *Cluster) Config() Config { return c.cfg }

// SetWorkerMemoryWindow installs a temporary memory-limit override on
// one worker for the virtual-time window [start, end): inside it the
// worker's effective limit is min(WorkerMemoryLimit, limit). end <= 0
// leaves the window open-ended. The chaos harness's memlimit event uses
// this to squeeze a worker mid-run.
func (c *Cluster) SetWorkerMemoryWindow(worker int, limit int64, start, end vtime.Time) {
	c.worker(worker).installMemWindow(limit, start, end)
}

// WorkerPaused reports whether a worker sits at or above its memory
// high watermark at the given virtual time. Producers consult it to
// steer failover away from workers that would only bounce the scatter.
func (c *Cluster) WorkerPaused(id int, at vtime.Time) bool {
	if id < 0 || id >= len(c.workers) {
		return false
	}
	return c.workers[id].pausedAt(at)
}

// xfer moves bytes across the fabric, adding the endpoint serialization
// charge, and returns the arrival time.
func (c *Cluster) xfer(from, to netsim.NodeID, bytes int64, at vtime.Time) vtime.Time {
	if c.cfg.SerializationBandwidth > 0 && bytes > 0 {
		at += float64(bytes) / c.cfg.SerializationBandwidth
	}
	return c.fabric.Transfer(from, to, bytes, at)
}

func (c *Cluster) worker(i int) *worker {
	if i < 0 || i >= len(c.workers) {
		panic(fmt.Sprintf("dask: worker %d out of range [0,%d)", i, len(c.workers)))
	}
	return c.workers[i]
}
