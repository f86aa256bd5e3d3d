package dask

import (
	"fmt"
	"os"
	"strings"

	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// Scheduler invariant auditor: a debug-mode pass that records every task
// state transition and re-checks the state machine's invariants after
// each scheduler mutation. It is the correctness oracle for the chaos
// harness (package chaos): with faults injected, the scheduler may take
// unusual paths (memory → waiting, memory → external, mass replans), and
// the auditor proves every intermediate state is still consistent.
//
// Invariants checked (with the scheduler lock held, after each mutation):
//
//  1. A task in memory has a valid owning worker the scheduler believes
//     alive, and that worker's object store actually holds the key.
//  2. A waiting task's missing count is exactly the number of its
//     dependencies that are not in memory; no waiting task has an erred
//     dependency (errors cascade immediately).
//  3. External tasks are never assigned to a worker.
//  4. Released keys hold no bytes on any scheduler-live worker.
//  5. Processing tasks are assigned to scheduler-live workers.
//  6. Dependency wiring is bidirectional and acyclic-by-construction:
//     every dependency edge has a matching dependents entry and vice
//     versa, and dependents only reference registered tasks.
//  7. Erred tasks carry an error; memory tasks carry non-negative bytes.
//  8. Memory conservation (governed workers): each live worker's
//     managed ledger equals the byte sum of its resident blocks, the
//     spilled ledger equals the byte sum of its spilled blocks, no
//     block sits in both tiers, no external (pinned) block was ever
//     spilled, and the resident ledger respects the limit seen by the
//     last governance pass — except for oversize grants, where at most
//     one evictable block remains resident (everything else is pinned).
//  9. Tenant isolation: no dependency edge crosses a tenant namespace,
//     and each tenant's resident-byte ledger (the default tenant's
//     included) equals the recomputed byte sum of its tasks in memory.
//
// A violation fails loudly: the auditor panics with the violation and the
// tail of the full transition log, so the interleaving that produced the
// bad state is visible.
//
// The audit pass is a single walk over the dense interned task table —
// O(tasks + edges) in deterministic taskID order, with no per-operation
// sorting and no scratch allocations (released keys are checked in the
// same walk, at their nil table slots).

// stateNone marks task creation in the transition log (no prior state).
const stateNone State = -1

// Transition is one audited scheduler state change. An entry with an
// empty Key and both states stateNone is a worker-death marker: the
// scheduler recorded worker Worker leaving its liveness view, so an
// offline replay (the simtest reference model) tracks the same dead set
// the production invariants were checked against.
type Transition struct {
	Op     string // scheduler operation that caused the change
	Key    taskgraph.Key
	From   State // stateNone on task creation
	To     State
	Worker int   // owner/assignee after the change; -1 none
	Bytes  int64 // result size after the change (memory states)
	At     vtime.Time
}

// WorkerDeath reports whether this entry is a worker-death marker.
func (tr Transition) WorkerDeath() bool {
	return tr.Key == "" && tr.From == stateNone && tr.To == stateNone
}

// String formats one transition.
func (tr Transition) String() string {
	if tr.WorkerDeath() {
		return fmt.Sprintf("[%s] worker %d died (t=%.6f)", tr.Op, tr.Worker, tr.At)
	}
	from := "·"
	if tr.From != stateNone {
		from = tr.From.String()
	}
	return fmt.Sprintf("[%s] %s: %s -> %s (worker %d, t=%.6f)",
		tr.Op, tr.Key, from, tr.To, tr.Worker, tr.At)
}

// auditLogCap bounds the retained transition log; older entries are
// discarded (the count of discarded entries is reported on violation).
const auditLogCap = 16384

// auditor holds the transition log and the released-key shadow set. All
// fields are guarded by the owning scheduler's mutex.
type auditor struct {
	log       []Transition
	truncated int64
	released  map[taskID]bool
	op        string // mutation currently in progress (panic context)
	at        vtime.Time
}

// auditEnvEnabled reports whether the DEISA_AUDIT environment variable
// asks for auditing on every cluster (the CI gate sets it so the entire
// test suite runs with the oracle on).
func auditEnvEnabled() bool {
	v := os.Getenv("DEISA_AUDIT")
	return v != "" && v != "0"
}

// EnableAudit turns on the scheduler invariant auditor. Call before
// submitting work. Auditing costs a full state scan per scheduler
// mutation, so it is meant for tests, chaos runs, and debugging, not for
// performance measurements.
func (c *Cluster) EnableAudit() {
	c.sched.mu.Lock()
	if c.sched.audit == nil {
		c.sched.audit = &auditor{released: map[taskID]bool{}}
	}
	c.sched.mu.Unlock()
}

// AuditEnabled reports whether the invariant auditor is on.
func (c *Cluster) AuditEnabled() bool {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	return c.sched.audit != nil
}

// AuditLog returns a copy of the recorded transition log (oldest first).
func (c *Cluster) AuditLog() []Transition {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	if c.sched.audit == nil {
		return nil
	}
	return append([]Transition(nil), c.sched.audit.log...)
}

// AuditTruncated returns how many old transition-log entries were
// discarded to the log cap. Replays that need the complete history
// (the simtest reference model) refuse truncated logs.
func (c *Cluster) AuditTruncated() int64 {
	c.sched.mu.Lock()
	defer c.sched.mu.Unlock()
	if c.sched.audit == nil {
		return 0
	}
	return c.sched.audit.truncated
}

// beginOpLocked tags the mutation in progress for transition records
// and stamps the mutation time for metric gauges.
func (s *scheduler) beginOpLocked(op string, at vtime.Time) {
	s.opAt = at
	if s.audit == nil {
		return
	}
	s.audit.op = op
	s.audit.at = at
}

// appendLocked adds one entry to the bounded transition log.
func (a *auditor) appendLocked(tr Transition) {
	if len(a.log) >= auditLogCap {
		drop := auditLogCap / 4
		a.truncated += int64(drop)
		a.log = append(a.log[:0], a.log[drop:]...)
	}
	a.log = append(a.log, tr)
}

// recordLocked appends one transition to the log. Call with s.mu held,
// after the task's state/worker fields are updated.
func (s *scheduler) recordLocked(st *schedTask, from State) {
	a := s.audit
	if a == nil {
		return
	}
	a.appendLocked(Transition{
		Op: a.op, Key: st.key, From: from, To: st.state, Worker: st.worker,
		Bytes: st.bytes, At: a.at,
	})
	if st.state != stateNone {
		delete(a.released, st.id) // key re-registered
	}
}

// recordWorkerDeadLocked appends a worker-death marker, so replays of
// the log track the scheduler's liveness view at each point.
func (s *scheduler) recordWorkerDeadLocked(id int) {
	a := s.audit
	if a == nil {
		return
	}
	a.appendLocked(Transition{Op: a.op, From: stateNone, To: stateNone, Worker: id, At: a.at})
}

// setStateLocked transitions a task, records it in the audit log, and
// counts it in the metrics registry.
func (s *scheduler) setStateLocked(st *schedTask, to State) {
	from := st.state
	st.state = to
	s.recordLocked(st, from)
	s.noteTransLocked(from, to)
	// Per-tenant resident-byte ledger: a task entering memory adds its
	// bytes, leaving memory (replan, erred cascade) removes the bytes it
	// held.
	if from == to {
		return
	}
	if from == StateMemory {
		s.tenants[st.tenant].resBytes -= st.bytes
		s.tenantsDirty = true
	} else if to == StateMemory {
		s.tenants[st.tenant].resBytes += st.bytes
		s.tenantsDirty = true
	}
}

// recordReleaseLocked notes a key leaving the scheduler via release.
func (s *scheduler) recordReleaseLocked(st *schedTask) {
	a := s.audit
	if a == nil {
		return
	}
	s.recordLocked(st, st.state)
	a.released[st.id] = true
}

// failLocked panics with the violation and the transition log tail.
func (s *scheduler) failLocked(format string, args ...any) {
	a := s.audit
	var b strings.Builder
	fmt.Fprintf(&b, "dask: scheduler invariant violated during %q: ", a.op)
	fmt.Fprintf(&b, format, args...)
	b.WriteString("\ntransition log")
	if a.truncated > 0 {
		fmt.Fprintf(&b, " (%d older entries discarded)", a.truncated)
	}
	b.WriteString(":\n")
	for _, tr := range a.log {
		b.WriteString("  ")
		b.WriteString(tr.String())
		b.WriteString("\n")
	}
	panic(b.String())
}

// auditLocked re-checks every invariant in one pass over the dense task
// table, in taskID order. Call with s.mu held at the end of each
// mutating scheduler operation.
func (s *scheduler) auditLocked() {
	if s.audit == nil {
		return
	}
	for _, t := range s.tenants {
		t.auditBytes = 0
	}
	for id, st := range s.tasks {
		if st == nil {
			// Interned but currently unregistered slot. If the key left
			// via release, no scheduler-live worker may still hold its
			// bytes.
			if !s.audit.released[taskID(id)] {
				continue
			}
			for wid, w := range s.cl.workers {
				if s.deadWorkers[wid] {
					continue
				}
				if w.has(taskID(id)) {
					s.failLocked("released key %q still holds bytes on worker %d", s.keys[id], wid)
				}
			}
			continue
		}
		switch st.state {
		case StateMemory:
			if st.worker < 0 || st.worker >= len(s.cl.workers) {
				s.failLocked("task %q in memory with invalid worker %d", st.key, st.worker)
			}
			if s.deadWorkers[st.worker] {
				s.failLocked("task %q in memory on dead worker %d", st.key, st.worker)
			}
			if !s.cl.workers[st.worker].has(st.id) {
				s.failLocked("task %q in memory but worker %d's store lacks it", st.key, st.worker)
			}
			if st.bytes < 0 {
				s.failLocked("task %q in memory with negative size %d", st.key, st.bytes)
			}
			s.tenants[st.tenant].auditBytes += st.bytes
		case StateWaiting:
			var want int32
			for _, d := range st.deps {
				dt := s.tasks[d]
				if dt == nil {
					want++ // unregistered dependency is by definition unfinished
					continue
				}
				switch dt.state {
				case StateMemory:
					// satisfied
				case StateErred:
					s.failLocked("waiting task %q has erred dependency %q (error did not cascade)", st.key, dt.key)
				default:
					want++
				}
			}
			if st.missingCount != want {
				s.failLocked("waiting task %q: missing count %d, want %d unfinished dependencies", st.key, st.missingCount, want)
			}
		case StateExternal:
			if st.worker != -1 {
				s.failLocked("external task %q assigned to worker %d", st.key, st.worker)
			}
		case StateProcessing:
			if st.worker < 0 || st.worker >= len(s.cl.workers) {
				s.failLocked("task %q processing on invalid worker %d", st.key, st.worker)
			}
			if s.deadWorkers[st.worker] {
				s.failLocked("task %q processing on dead worker %d", st.key, st.worker)
			}
		case StateErred:
			if st.err == nil {
				s.failLocked("task %q erred without an error", st.key)
			}
		}
		for _, d := range st.dependents {
			dt := s.tasks[d]
			if dt == nil {
				s.failLocked("task %q has dependent %q that is not registered", st.key, s.keys[d])
			}
			found := false
			for _, dep := range dt.deps {
				if dep == st.id {
					found = true
					break
				}
			}
			if !found {
				s.failLocked("task %q lists dependent %q, which does not depend on it", st.key, dt.key)
			}
			// Every edge between registered tasks appears here (wiring is
			// bidirectional), so this also covers the tenant-isolation
			// half of invariant 9.
			if dt.tenant != st.tenant {
				s.failLocked("task %q (tenant %q) depends on %q (tenant %q): edge crosses tenant namespaces",
					dt.key, tenantLabel(s.tenants[dt.tenant].name), st.key, tenantLabel(s.tenants[st.tenant].name))
			}
		}
	}
	for _, t := range s.tenants {
		if t.resBytes != t.auditBytes {
			s.failLocked("tenant %q resident ledger %d != in-memory byte sum %d",
				tenantLabel(t.name), t.resBytes, t.auditBytes)
		}
	}
	s.auditMemoryLocked()
}

// auditMemoryLocked checks invariant 8 (memory conservation) on every
// live governed worker. Dead workers are skipped: their stores are
// unreachable and the replan already moved their tasks.
func (s *scheduler) auditMemoryLocked() {
	for wid, w := range s.cl.workers {
		if s.deadWorkers[wid] || !w.governed() {
			continue
		}
		mem, sumRes, spilledB, sumSp, overlap, extSpilled, evictable, lastLimit := w.memAudit()
		if mem != sumRes {
			s.failLocked("worker %d managed ledger %d != resident block sum %d", wid, mem, sumRes)
		}
		if spilledB != sumSp {
			s.failLocked("worker %d spilled ledger %d != spilled block sum %d", wid, spilledB, sumSp)
		}
		if overlap {
			s.failLocked("worker %d holds a block in both the resident and spilled tiers", wid)
		}
		if extSpilled {
			s.failLocked("worker %d spilled an external (pinned) block", wid)
		}
		if lastLimit > 0 && mem > lastLimit && evictable > 1 {
			s.failLocked("worker %d resident ledger %d exceeds limit %d with %d evictable blocks (not an oversize grant)",
				wid, mem, lastLimit, evictable)
		}
	}
}
