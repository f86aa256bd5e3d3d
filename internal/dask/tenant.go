package dask

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"deisago/internal/metrics"
	"deisago/internal/taskgraph"
)

// Fair-share layer. Every cluster starts with the catch-all default
// tenant, which owns every key; a cluster shared by several client
// pipelines registers one named tenant per pipeline, and every key
// whose prefix (the segment before the first '/') names a registered
// tenant belongs to that tenant instead. The ready queue is one heap
// per tenant and pops interleave tenants by virtual service deficit
// (start-time fair queueing): a tenant's virtual service advances by
// 1/weight per served task, the scheduler always serves the backlogged
// tenant with the smallest virtual service, and a tenant going idle is
// caught up on activation so sleeping never banks credit. A single-job
// cluster is the one-tenant case: its pops all go to the default heap,
// and the default tenant's instruments stay unbound (nil, so no-ops)
// until a named tenant registers.

// tenantState is one tenant's scheduler-side record. All fields are
// guarded by the owning scheduler's mutex.
type tenantState struct {
	name   string
	weight float64

	// vs is the tenant's virtual service time: it advances by 1/weight
	// per popped task, and pop order always serves the smallest vs among
	// backlogged tenants.
	vs float64
	// ready is the tenant's private runnable heap.
	ready readyQueue

	pops     int64 // tasks served (ready-queue pops)
	resBytes int64 // bytes of this tenant's tasks currently in memory
	// auditBytes is the auditor's recomputed in-memory byte sum,
	// checked against resBytes (invariant 9).
	auditBytes int64

	popsC     *metrics.Counter
	assignedC *metrics.Counter
	shareG    *metrics.Gauge
	bytesG    *metrics.Gauge
}

// bind creates the tenant's instruments.
func (t *tenantState) bind(reg *metrics.Registry) {
	lbl := metrics.L("tenant", tenantLabel(t.name))
	t.popsC = reg.Counter("scheduler", "tenant_pops", lbl)
	t.assignedC = reg.Counter("worker", "tenant_tasks", lbl)
	t.shareG = reg.Gauge("scheduler", "tenant_share", lbl)
	t.bytesG = reg.Gauge("memory", "tenant_bytes", lbl)
}

// tenantLabel names a tenant for metric labels and error messages (the
// catch-all tenant has the empty name).
func tenantLabel(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// ValidateTenant checks a tenant's name and fair-share weight: the name
// is non-empty, has no '/', and is not "default", which names the
// catch-all tenant; the weight is positive.
func ValidateTenant(name string, weight float64) error {
	if name == "" || name == tenantLabel("") || strings.ContainsRune(name, '/') {
		return fmt.Errorf("dask: invalid tenant name %q (non-empty, not %q, no '/')", name, tenantLabel(""))
	}
	if !(weight > 0) || math.IsInf(weight, 1) {
		return fmt.Errorf("dask: tenant %q needs a finite positive weight, got %g", name, weight)
	}
	return nil
}

// RegisterTenant declares a tenant with the given fair-share weight.
// Keys prefixed "<name>/" submitted, scattered, or created after this
// call are attributed to the tenant; its share of ready-queue service
// is weight-proportional against the other backlogged tenants,
// including the catch-all default tenant (weight 1) that owns every
// other key. The name and weight must pass ValidateTenant. Call before
// submitting the tenant's work.
func (c *Cluster) RegisterTenant(name string, weight float64) error {
	if err := ValidateTenant(name, weight); err != nil {
		return err
	}
	s := c.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenantIdx[name]; dup {
		return fmt.Errorf("dask: tenant %q already registered", name)
	}
	if s.tenantIdx == nil {
		// First named tenant: bind the default tenant's instruments
		// first, so instrument creation follows registration order, and
		// turn on the fairness gauge flush.
		s.tenantIdx = map[string]int{}
		s.tenants[0].bind(s.cl.reg)
		s.jainG = s.cl.reg.Gauge("scheduler", "fairness_jain")
		s.tenantsDirty = true
	}
	t := &tenantState{name: name, weight: weight}
	t.bind(s.cl.reg)
	s.tenants = append(s.tenants, t)
	s.tenantIdx[name] = len(s.tenantIdx) + 1
	return nil
}

// tenantTagLocked returns the tenant index a key belongs to: the
// segment before the first '/' when it names a registered tenant, else
// the default tenant 0.
func (s *scheduler) tenantTagLocked(k taskgraph.Key) int32 {
	if i := strings.IndexByte(string(k), '/'); i > 0 {
		if idx, ok := s.tenantIdx[string(k[:i])]; ok {
			return int32(idx)
		}
	}
	return 0
}

// pushReadyLocked queues a runnable task on its tenant's heap; a tenant
// activating from idle has its virtual service caught up to the system
// virtual time. An ID with no registered task (a synthetic backlog of
// interned keys) is tagged by its key prefix.
func (s *scheduler) pushReadyLocked(priority int, id taskID) {
	var tag int32
	if st := s.tasks[id]; st != nil {
		tag = st.tenant
	} else {
		tag = s.tenantTagLocked(s.keys[id])
	}
	t := s.tenants[tag]
	if len(t.ready) == 0 && t.vs < s.virtualTime {
		t.vs = s.virtualTime
	}
	t.ready.push(priority, id)
	s.readyN++
}

// pickTenantLocked selects the backlogged tenant with the smallest
// virtual service. Production breaks vs ties by tenant name; with a
// TieBreaker installed every tied tenant is a legal pick and the
// breaker chooses through PointTenantPick (candidates in name order).
func (s *scheduler) pickTenantLocked() *tenantState {
	var best *tenantState
	for _, t := range s.tenants {
		if len(t.ready) == 0 {
			continue
		}
		if best == nil || t.vs < best.vs || (t.vs == best.vs && t.name < best.name) {
			best = t
		}
	}
	if tb := s.cl.cfg.TieBreak; tb != nil && best != nil {
		cands := s.tenantCands[:0]
		for _, t := range s.tenants {
			if len(t.ready) > 0 && t.vs == best.vs {
				cands = append(cands, t)
			}
		}
		s.tenantCands = cands
		if len(cands) > 1 {
			sort.Slice(cands, func(i, j int) bool { return cands[i].name < cands[j].name })
			best = cands[clampPick(tb.Pick(Decision{
				Point: PointTenantPick, Key: tenantLabel(cands[0].name), N: len(cands),
			}), len(cands))]
		}
	}
	return best
}

// tenantFlushStride is how many dirty scheduler operations may pass
// between flushes of the derived fairness gauges. The counters (pops,
// assigned tasks) stay exact per operation; only the derived gauges are
// sampled at this stride.
const tenantFlushStride = 16

// flushTenantGaugesLocked updates the derived fairness gauges at the
// current operation's handling time: per-tenant service share and
// resident bytes, plus Jain's fairness index over weight-normalized
// service (1.0 = perfectly weight-fair), and restarts the throttle.
func (s *scheduler) flushTenantGaugesLocked() {
	s.tenantsDirty = false
	s.tenantFlushSkip = 0
	for _, t := range s.tenants {
		if s.totalPops > 0 {
			t.shareG.Set(float64(t.pops)/float64(s.totalPops), s.opAt)
		}
		t.bytesG.Set(float64(t.resBytes), s.opAt)
	}
	s.jainG.Set(s.jainLocked(), s.opAt)
}

// jainLocked returns Jain's fairness index over the tenants'
// weight-normalized service (pops/weight): 1.0 means every tenant got
// an exactly weight-proportional share; 1/n means one tenant got
// everything. Tenants that were never served are excluded. Returns 1
// when at most one tenant has been served.
func (s *scheduler) jainLocked() float64 {
	var sumX, sumX2 float64
	n := 0
	for _, t := range s.tenants {
		if t.pops > 0 {
			x := float64(t.pops) / t.weight
			sumX += x
			sumX2 += x * x
			n++
		}
	}
	if n == 0 || sumX2 == 0 {
		return 1
	}
	return sumX * sumX / (float64(n) * sumX2)
}
