// Package multijob is the admission plane of a run with jobs
// (harness.Run(cfg, jobs...)): N client pipelines share one deisa
// platform (cluster, fabric, PFS), and a Plane caps how many of them run
// at once. Waiters are served FIFO with no overtaking, so a job queued
// early is never starved by late arrivals. A job's tenant identity and
// fair-share weight live on the scheduler (dask.Cluster.RegisterTenant).
//
// Admission acts in host time only. A cap serialises the host execution
// of the jobs and nothing else: a queued job's clocks still start at
// virtual time 0 when it is admitted, so a capped run does not take
// longer in virtual time than an uncapped one. Tickets go out in the
// order the jobs' goroutines arrive, and MaxQueue counts host waiters.
//
// The plane is cluster-agnostic: it hands out admission tickets, and the
// harness driver runs the admitted pipeline.
package multijob

import (
	"fmt"
	"sync"
)

// Plane is the admission queue. Admit blocks callers FIFO until a slot
// is free; the function Admit returns frees the slot.
type Plane struct {
	maxConcurrent int // 0 = unlimited

	mu   sync.Mutex
	cond *sync.Cond
	// FIFO tickets: a caller admits only when its ticket is the lowest
	// waiting one and a slot is free, so arrival order is service order.
	nextTicket  int64
	serveTicket int64
	running     int

	admitted int64
	maxQueue int // high-water mark of simultaneous waiters
	waiting  int
}

// NewPlane builds an admission plane that runs at most maxConcurrent
// jobs at once; 0 means unlimited.
func NewPlane(maxConcurrent int) *Plane {
	if maxConcurrent < 0 {
		panic(fmt.Sprintf("multijob: negative concurrency cap %d", maxConcurrent))
	}
	p := &Plane{maxConcurrent: maxConcurrent}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Admit blocks until the caller is at the head of the FIFO queue and a
// slot is free, then returns a release function the caller must invoke
// when the job finishes (calling it more than once is a no-op).
func (p *Plane) Admit() (release func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ticket := p.nextTicket
	p.nextTicket++
	p.waiting++
	if p.waiting > p.maxQueue {
		p.maxQueue = p.waiting
	}
	for ticket != p.serveTicket || (p.maxConcurrent > 0 && p.running >= p.maxConcurrent) {
		p.cond.Wait()
	}
	p.waiting--
	p.serveTicket++
	p.running++
	p.admitted++
	p.cond.Broadcast() // the next ticket may also fit
	var once sync.Once
	return func() {
		once.Do(func() {
			p.mu.Lock()
			p.running--
			p.mu.Unlock()
			p.cond.Broadcast()
		})
	}
}

// Stats is a snapshot of the plane's admission accounting.
type Stats struct {
	Admitted int64 // jobs admitted so far
	Running  int   // jobs currently holding a slot
	Waiting  int   // jobs currently queued
	MaxQueue int   // high-water mark of simultaneous waiters
}

// Stats snapshots the plane.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Admitted: p.admitted, Running: p.running, Waiting: p.waiting, MaxQueue: p.maxQueue}
}
