// Package multijob is the control plane that admits N concurrent
// client pipelines onto one shared deisa platform (cluster, fabric,
// PFS). Limits + Plane form an admission queue with configurable
// concurrency and managed-memory budgets. Jobs whose declared estimate
// can never fit are rejected immediately (ErrOverBudget); everything
// else queues FIFO and starts only when both the concurrency slot and
// the budget headroom exist — backpressure instead of overcommit,
// layered on the per-worker governance ledgers that bound what admitted
// jobs can actually hold resident. A job's tenant identity and
// fair-share weight live on the scheduler (dask.Cluster.RegisterTenant).
//
// The plane is deliberately cluster-agnostic: it hands out admission
// tickets, the harness driver (harness.RunMultiJob) runs the admitted
// pipeline. Admission order is FIFO with no overtaking, so a large job
// queued behind small ones is never starved by late arrivals.
package multijob

import (
	"errors"
	"fmt"
	"sync"
)

// Limits bounds what the admission plane lets run at once. Zero values
// mean "unlimited" for each knob independently.
type Limits struct {
	// MaxConcurrent caps how many jobs run simultaneously.
	MaxConcurrent int
	// TenantBudget caps one job's declared managed-memory estimate; a
	// job declaring more is rejected outright (it could never fit).
	TenantBudget int64
	// ClusterBudget caps the sum of running jobs' estimates; a job
	// within its tenant budget but over the remaining headroom queues
	// until enough running jobs release.
	ClusterBudget int64
}

// ErrOverBudget reports a job whose declared estimate exceeds a budget
// it could never fit under — queueing would wait forever, so admission
// rejects immediately. Match with errors.Is.
var ErrOverBudget = errors.New("multijob: job estimate exceeds admission budget")

// Plane is the admission queue. Admit blocks callers FIFO until their
// job fits; Release (the function Admit returns) frees the slot.
type Plane struct {
	lim Limits

	mu   sync.Mutex
	cond *sync.Cond
	// FIFO tickets: a caller admits only when its ticket is the lowest
	// waiting one and the limits allow it, so arrival order is service
	// order and a big job cannot be starved by smaller late arrivals.
	nextTicket  int64
	serveTicket int64
	running     int
	inUse       int64 // sum of running jobs' estimates

	admitted int64
	rejected int64
	maxQueue int // high-water mark of simultaneous waiters
	waiting  int
}

// NewPlane builds an admission plane with the given limits.
func NewPlane(lim Limits) *Plane {
	if lim.MaxConcurrent < 0 || lim.TenantBudget < 0 || lim.ClusterBudget < 0 {
		panic(fmt.Sprintf("multijob: negative limits %+v", lim))
	}
	p := &Plane{lim: lim}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Limits returns the plane's configured limits.
func (p *Plane) Limits() Limits { return p.lim }

// Admit asks to run a job declaring the given managed-memory estimate
// (bytes; 0 = negligible). It returns ErrOverBudget immediately when
// the estimate exceeds the per-tenant or whole-cluster budget — no
// amount of waiting could admit it. Otherwise it blocks until the job
// is at the head of the FIFO queue and both the concurrency slot and
// the budget headroom are free, then returns a release function the
// caller must invoke exactly once when the job finishes (calling it
// more than once is a no-op).
func (p *Plane) Admit(name string, estimate int64) (release func(), err error) {
	if estimate < 0 {
		return nil, fmt.Errorf("multijob: job %q declares negative estimate %d", name, estimate)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if (p.lim.TenantBudget > 0 && estimate > p.lim.TenantBudget) ||
		(p.lim.ClusterBudget > 0 && estimate > p.lim.ClusterBudget) {
		p.rejected++
		return nil, fmt.Errorf("multijob: job %q estimate %d: %w", name, estimate, ErrOverBudget)
	}
	ticket := p.nextTicket
	p.nextTicket++
	p.waiting++
	if p.waiting > p.maxQueue {
		p.maxQueue = p.waiting
	}
	for !(ticket == p.serveTicket && p.fitsLocked(estimate)) {
		p.cond.Wait()
	}
	p.waiting--
	p.serveTicket++
	p.running++
	p.inUse += estimate
	p.admitted++
	p.cond.Broadcast() // the next ticket may also fit
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.running--
			p.inUse -= estimate
			p.mu.Unlock()
			p.cond.Broadcast()
		})
	}, nil
}

// fitsLocked reports whether a job with the given estimate fits the
// limits right now. Caller holds p.mu.
func (p *Plane) fitsLocked(estimate int64) bool {
	if p.lim.MaxConcurrent > 0 && p.running >= p.lim.MaxConcurrent {
		return false
	}
	if p.lim.ClusterBudget > 0 && p.inUse+estimate > p.lim.ClusterBudget {
		return false
	}
	return true
}

// Stats is a snapshot of the plane's admission accounting.
type Stats struct {
	Admitted int64 // jobs admitted so far
	Rejected int64 // jobs rejected over budget
	Running  int   // jobs currently holding a slot
	Waiting  int   // jobs currently queued
	MaxQueue int   // high-water mark of simultaneous waiters
	InUse    int64 // sum of running jobs' estimates
}

// Stats snapshots the plane.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Admitted: p.admitted, Rejected: p.rejected,
		Running: p.running, Waiting: p.waiting,
		MaxQueue: p.maxQueue, InUse: p.inUse,
	}
}
