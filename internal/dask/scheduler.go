package dask

import (
	"fmt"
	"sort"
	"sync"

	"deisago/internal/metrics"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// State is a task's scheduler-side lifecycle state. It mirrors the
// Dask.distributed task state machine, extended with StateExternal — the
// paper's contribution: a task that is neither schedulable nor runnable
// by the cluster; an external environment produces its result and pushes
// it to a worker, after which the scheduler runs the ordinary
// finished-task transition path.
type State int

// Task states.
const (
	StateWaiting State = iota
	StateReady
	StateProcessing
	StateMemory
	StateErred
	StateExternal
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateWaiting:
		return "waiting"
	case StateReady:
		return "ready"
	case StateProcessing:
		return "processing"
	case StateMemory:
		return "memory"
	case StateErred:
		return "erred"
	case StateExternal:
		return "external"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// taskID is a dense integer handle for a task key, interned the first
// time the scheduler sees the key. IDs live for the cluster lifetime:
// releasing a key frees its task-table slot but keeps the interning, so
// a re-registered key reuses its old ID. All scheduler-internal state
// (task table, dependency wiring, worker object stores) is keyed by ID;
// the string key survives only at the client API boundary and in
// traces, metrics labels, and error messages.
type taskID int32

type schedTask struct {
	id       taskID
	tenant   int32         // index into scheduler.tenants, fixed at registration
	key      taskgraph.Key // original key, for traces/errors/labels
	fn       taskgraph.Fn
	timed    taskgraph.TimedFn
	cost     vtime.Dur
	outBytes int64
	priority int
	// deps holds the deduplicated dependency IDs, carved from one
	// per-submit block; it is never mutated after registration.
	deps []taskID
	// missingCount is the number of deps not yet in memory. It replaces
	// the per-task missing map: decremented as deps reach memory,
	// rebuilt from dep states on worker loss.
	missingCount int32
	// dependents lists the registered tasks depending on this one.
	// In-batch edges are carved from one shared block per submitGraph;
	// later cross-batch edges append past the carved cap, which
	// reallocates the slice without touching neighbouring windows.
	dependents []taskID
	// wired marks registration complete; during submitGraph it
	// distinguishes the batch being registered (whose dependent windows
	// are still being carved, using deg as scratch) from older tasks.
	wired bool
	deg   int32
	state State
	// worker is the result owner (memory) or assignee (processing); -1
	// unknown.
	worker  int
	bytes   int64
	readyAt vtime.Time
	err     error
	// wasExternal marks tasks created in the external state: if their
	// result is lost with a worker, they return to external (the
	// producing environment can republish) instead of erring.
	wasExternal bool
}

type varEntry struct {
	set   bool
	value any
	setAt vtime.Time
}

type queueItem struct {
	value any
	putAt vtime.Time
}

type queueEntry struct {
	items []queueItem
}

// readyItem is one runnable task queued for assignment.
type readyItem struct {
	priority int
	id       taskID
}

// readyQueue is a binary min-heap of runnable tasks ordered by
// (priority, taskID). The taskID tie-break makes the pop order a pure
// function of the queue contents — no insertion-order dependence — so
// same-seed runs drain identically. A typed heap (rather than
// container/heap) keeps push/pop free of interface boxing allocations.
type readyQueue []readyItem

func (q readyQueue) less(i, j int) bool {
	return q[i].priority < q[j].priority ||
		(q[i].priority == q[j].priority && q[i].id < q[j].id)
}

// up sifts element i toward the root.
func (q readyQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// down sifts element i toward the leaves.
func (q readyQueue) down(i int) {
	n := len(q)
	for {
		small := i
		if l := 2*i + 1; l < n && q.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
}

func (q *readyQueue) push(priority int, id taskID) {
	arr := append(*q, readyItem{priority: priority, id: id})
	arr.up(len(arr) - 1)
	*q = arr
}

// removeAt deletes the element at heap index i, restoring heap order.
// The schedule explorer uses it to pop an arbitrary member of the tied
// minimal-priority set; i = 0 is the ordinary pop.
func (q *readyQueue) removeAt(i int) taskID {
	arr := *q
	id := arr[i].id
	n := len(arr) - 1
	arr[i] = arr[n]
	arr = arr[:n]
	*q = arr
	if i < n {
		arr.down(i)
		arr.up(i)
	}
	return id
}

func (q *readyQueue) pop() taskID { return q.removeAt(0) }

type scheduler struct {
	cl  *Cluster
	cpu *vtime.Resource

	mu   sync.Mutex
	cond *sync.Cond
	// Interned key tables. ids and keys are append-only for the cluster
	// lifetime; tasks is indexed by taskID and nil for released (or
	// interned-but-never-registered) slots.
	ids    map[taskgraph.Key]taskID
	keys   []taskgraph.Key
	tasks  []*schedTask
	vars   map[string]*varEntry
	queues map[string]*queueEntry
	rr     int
	// deadWorkers is the scheduler's own view of worker liveness: a
	// worker is dead here once its workerLost replan has run. State
	// checks (and the invariant auditor) use this view, not the
	// real-time worker flag, so a kill that has been signalled but not
	// yet processed cannot make a consistent state look corrupt.
	deadWorkers map[int]bool
	audit       *auditor
	// opAt is the handling time of the mutation in progress; it stamps
	// the per-state task-count gauges (metrics), mirroring auditor.at.
	opAt vtime.Time
	// nByState tracks the live number of tasks per state for the
	// scheduler/tasks{state=...} gauges (the dashboard's queue depths).
	nByState [StateExternal + 1]int
	// dirtyStates accumulates states whose gauge changed during the
	// mutation in progress; endOpLocked flushes them in one batch
	// instead of one registry call per transition.
	dirtyStates uint8

	// Cached registry handles: the per-message and per-transition
	// counters are on the hot path, and the registry's Counter lookup
	// formats a metric ID per call. msgC is built once at construction
	// and read-only afterwards (handle runs outside s.mu); transC and
	// stateG fill lazily under s.mu so the registry contents stay
	// identical to creating each series on first use.
	msgC   map[string]*metrics.Counter
	transC [StateExternal + 2][StateExternal + 2]*metrics.Counter
	stateG [StateExternal + 1]*metrics.Gauge
	// The dask/* totals behind the paper's message-count argument (§2.1:
	// 2·T·R+heartbeats messages for DEISA1 versus 1+R with external
	// tasks); read them from the registry as "dask/<name>".
	graphsC, tasksRegC, externalC, updateDataC, metadataC, metadataEntriesC,
	taskFinishedC, heartbeatsC, variableOpsC, queueOpsC, gatherC, totalMsgC *metrics.Counter

	// Locality scratch for assignLocked: per-worker byte tallies reused
	// across calls via an epoch stamp, replacing a per-call map.
	assignBytes   []int64
	assignMark    []uint32
	assignTouched []int
	assignEpoch   uint32

	// Tie-break scratch, used only when cfg.TieBreak is set (schedule
	// exploration): candidate sets reused across decisions.
	readyTied   tied
	assignCands []int

	// Fair-share state (see tenant.go). tenants[0] is the catch-all
	// default tenant every cluster starts with; RegisterTenant appends
	// the named ones.
	tenants   []*tenantState
	tenantIdx map[string]int // named tenant -> tenants index; nil until one registers
	// readyN is the queued-entry total across all per-tenant heaps.
	readyN int
	// virtualTime is the system virtual service (the vs of the last
	// served tenant); activating tenants catch up to it.
	virtualTime float64
	totalPops   int64
	// tenantsDirty marks tenant gauges for the endOpLocked batch flush;
	// tenantFlushSkip throttles that flush to every tenantFlushStride-th
	// dirty operation. jainG stays nil, and the flush off, until the
	// first named tenant binds the fairness instruments.
	tenantsDirty    bool
	tenantFlushSkip int
	jainG           *metrics.Gauge
	tenantCands     []*tenantState
}

// msgKinds enumerates every scheduler message kind, so the per-kind
// counters can be created once up front and then read without locking.
var msgKinds = []string{
	"submit", "create-external", "update-data", "task-finished",
	"task-erred", "wait", "metadata", "release", "heartbeat",
	"var-set", "var-get", "queue-put", "queue-get", "worker-lost",
}

func newScheduler(cl *Cluster) *scheduler {
	s := &scheduler{
		cl:          cl,
		cpu:         vtime.NewResource("scheduler-cpu"),
		ids:         make(map[taskgraph.Key]taskID),
		vars:        make(map[string]*varEntry),
		queues:      make(map[string]*queueEntry),
		deadWorkers: map[int]bool{},
		msgC:        make(map[string]*metrics.Counter, len(msgKinds)),
	}
	for _, kind := range msgKinds {
		s.msgC[kind] = cl.reg.Counter("scheduler", "messages", metrics.L("kind", kind))
	}
	dc := func(name string) *metrics.Counter { return cl.reg.Counter("dask", name) }
	s.graphsC, s.tasksRegC, s.externalC = dc("graphs_submitted"), dc("tasks_registered"), dc("external_created")
	s.updateDataC, s.metadataC, s.metadataEntriesC = dc("update_data_msgs"), dc("metadata_msgs"), dc("metadata_entries")
	s.taskFinishedC, s.heartbeatsC, s.variableOpsC = dc("task_finished_msgs"), dc("heartbeats"), dc("variable_ops")
	s.queueOpsC, s.gatherC, s.totalMsgC = dc("queue_ops"), dc("gather_requests"), dc("total_scheduler_msgs")
	s.tenants = []*tenantState{{weight: 1}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// internLocked returns the dense ID for a key, assigning the next one on
// first sight. Caller holds s.mu.
func (s *scheduler) internLocked(k taskgraph.Key) taskID {
	if id, ok := s.ids[k]; ok {
		return id
	}
	id := taskID(len(s.keys))
	s.ids[k] = id
	s.keys = append(s.keys, k)
	s.tasks = append(s.tasks, nil)
	return id
}

// intern is the locking wrapper used by the client boundary (scatter
// interns keys before shipping data so worker stores are ID-keyed).
func (s *scheduler) intern(k taskgraph.Key) taskID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.internLocked(k)
}

// lookupLocked resolves a key to its registered task, or nil if the key
// was never registered or has been released. Caller holds s.mu.
func (s *scheduler) lookupLocked(k taskgraph.Key) *schedTask {
	if id, ok := s.ids[k]; ok {
		return s.tasks[id]
	}
	return nil
}

// handle charges the scheduler CPU for one incoming message of the
// given kind arriving at the given time, plus extra per-item work, and
// returns the handling completion time.
func (s *scheduler) handle(kind string, arrival vtime.Time, extra vtime.Dur) vtime.Time {
	s.totalMsgC.Inc()
	if c, ok := s.msgC[kind]; ok {
		c.Inc()
	} else {
		s.cl.reg.Counter("scheduler", "messages", metrics.L("kind", kind)).Inc()
	}
	_, end := s.cpu.Acquire(arrival, s.cl.cfg.SchedulerMsgCost+extra)
	return end
}

// stateLabel names a state for transition-counter labels ("new" for the
// creation sentinel).
func stateLabel(st State) string {
	if st == stateNone {
		return "new"
	}
	return st.String()
}

// transCounterLocked returns the cached counter for a from→to
// transition; toIdx StateExternal+1 is the released pseudo-state.
func (s *scheduler) transCounterLocked(from State, toIdx int, toLabel string) *metrics.Counter {
	c := s.transC[from+1][toIdx]
	if c == nil {
		c = s.cl.reg.Counter("scheduler", "transitions",
			metrics.L("from", stateLabel(from)), metrics.L("to", toLabel))
		s.transC[from+1][toIdx] = c
	}
	return c
}

// noteTransLocked counts one task state transition and marks the
// per-state task-count gauges dirty (flushed once per mutation by
// endOpLocked). from is stateNone on task creation. Call with s.mu held.
func (s *scheduler) noteTransLocked(from, to State) {
	s.transCounterLocked(from, int(to), to.String()).Inc()
	if from != stateNone {
		s.nByState[from]--
		s.dirtyStates |= 1 << uint(from)
	}
	s.nByState[to]++
	s.dirtyStates |= 1 << uint(to)
}

// noteReleaseLocked counts a task leaving the scheduler via release.
func (s *scheduler) noteReleaseLocked(from State) {
	s.transCounterLocked(from, int(StateExternal)+1, "released").Inc()
	s.nByState[from]--
	s.dirtyStates |= 1 << uint(from)
}

// endOpLocked closes a mutating operation: it flushes the dirty
// per-state gauges at the operation's handling time in one batch, then
// runs the invariant auditor. Deferred by every mutating entry point.
func (s *scheduler) endOpLocked() {
	if s.dirtyStates != 0 {
		for st := StateWaiting; st <= StateExternal; st++ {
			if s.dirtyStates&(1<<uint(st)) == 0 {
				continue
			}
			g := s.stateG[st]
			if g == nil {
				g = s.cl.reg.Gauge("scheduler", "tasks", metrics.L("state", st.String()))
				s.stateG[st] = g
			}
			g.Set(float64(s.nByState[st]), s.opAt)
		}
		s.dirtyStates = 0
	}
	if s.tenantsDirty && s.jainG != nil {
		// Throttled: the fairness gauges are derived (share, bytes,
		// Jain) and change a little on every pop, so flushing each
		// operation would put 5 gauge appends on every scheduler op and
		// bloat the snapshot series. RecordUtilization flushes the
		// final values.
		if s.tenantFlushSkip++; s.tenantFlushSkip >= tenantFlushStride {
			s.flushTenantGaugesLocked()
		}
	}
	s.auditLocked()
}

// submitGraph registers a culled task graph arriving at the given time.
// Dependencies not present in the graph must already be known to the
// scheduler (scattered data or external tasks). Returns the handling
// completion time.
func (s *scheduler) submitGraph(g *taskgraph.Graph, arrival vtime.Time) (vtime.Time, error) {
	s.graphsC.Inc()
	handled := s.handle("submit", arrival, s.cl.cfg.SchedulerTaskCost*vtime.Dur(g.Len()))

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("submit", handled)

	keys := g.Keys()
	// Validate first, before any scheduler mutation: no duplicates, no
	// bodyless tasks, all out-of-graph deps known.
	totalDeps := 0
	var verr error
	g.Walk(func(k taskgraph.Key, t *taskgraph.Task) bool {
		if s.lookupLocked(k) != nil {
			verr = fmt.Errorf("dask: task %q already exists on the scheduler", k)
			return false
		}
		if t.IsData() {
			verr = fmt.Errorf("dask: task %q has no body; scatter data instead of submitting it", k)
			return false
		}
		totalDeps += len(t.Deps)
		ttag := s.tenantTagLocked(k)
		for _, d := range t.Deps {
			var dtag int32
			if g.Has(d) {
				dtag = s.tenantTagLocked(d)
			} else if dt := s.lookupLocked(d); dt != nil {
				dtag = dt.tenant
			} else {
				verr = fmt.Errorf("dask: task %q depends on unknown key %q", k, d)
				return false
			}
			if dtag != ttag {
				verr = fmt.Errorf("dask: task %q (tenant %q) depends on %q: dependency edges may not cross tenant namespaces",
					k, tenantLabel(s.tenants[ttag].name), d)
				return false
			}
		}
		return true
	})
	if verr != nil {
		return handled, verr
	}
	// Register. One schedTask block and one dependency-ID block serve
	// the whole batch: per-task registration allocates O(1), not
	// O(deps) — the win the interning buys over per-task maps.
	slab := make([]schedTask, len(keys))
	depIDs := make([]taskID, 0, totalDeps)
	for i, k := range keys {
		gt := g.Get(k)
		id := s.internLocked(k)
		start := len(depIDs)
	deps:
		for _, d := range gt.Deps {
			did := s.internLocked(d)
			for _, seen := range depIDs[start:] {
				if seen == did {
					continue deps // count each dependency edge once
				}
			}
			depIDs = append(depIDs, did)
		}
		slab[i] = schedTask{
			id:       id,
			tenant:   s.tenantTagLocked(k),
			key:      k,
			fn:       gt.Fn,
			timed:    gt.Timed,
			cost:     gt.Cost,
			outBytes: gt.OutBytes,
			priority: gt.Priority,
			deps:     depIDs[start:len(depIDs):len(depIDs)],
			state:    StateWaiting,
			worker:   -1,
		}
		st := &slab[i]
		s.tasks[id] = st
		s.recordLocked(st, stateNone)
		s.noteTransLocked(stateNone, st.state)
	}
	s.tasksRegC.Add(int64(len(keys)))
	// Carve dependent-edge windows: count each new task's in-batch
	// degree, then hand it a zero-length window of one shared block.
	// Edges into previously-registered tasks append to their existing
	// slices (append past the carved cap reallocates, so windows of
	// different tasks never clobber each other).
	inBatch := 0
	for i := range slab {
		for _, d := range slab[i].deps {
			if dt := s.tasks[d]; !dt.wired {
				dt.deg++
				inBatch++
			}
		}
	}
	edges := make([]taskID, inBatch)
	off := 0
	for i := range slab {
		deg := int(slab[i].deg)
		slab[i].dependents = edges[off : off : off+deg]
		off += deg
		slab[i].deg = 0
		slab[i].wired = true
	}
	// Wire dependencies and queue initially runnable tasks.
	for i := range slab {
		st := &slab[i]
		for _, d := range st.deps {
			dt := s.tasks[d]
			dt.dependents = append(dt.dependents, st.id)
			switch dt.state {
			case StateMemory:
				// satisfied
			case StateErred:
				s.erredLocked(st, fmt.Errorf("dask: dependency %q erred: %w", dt.key, dt.err))
			default:
				st.missingCount++
			}
		}
		if st.state == StateWaiting && st.missingCount == 0 {
			s.pushReadyLocked(st.priority, st.id)
		}
	}
	s.drainReadyLocked(handled)
	s.cond.Broadcast()
	return handled, nil
}

// createExternal registers external tasks for the given keys.
func (s *scheduler) createExternal(keys []taskgraph.Key, arrival vtime.Time) (vtime.Time, error) {
	handled := s.handle("create-external", arrival, s.cl.cfg.SchedulerTaskCost*vtime.Dur(len(keys)))
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("create-external", handled)
	for _, k := range keys {
		if s.lookupLocked(k) != nil {
			return handled, fmt.Errorf("dask: external task %q already exists", k)
		}
	}
	slab := make([]schedTask, len(keys))
	for i, k := range keys {
		id := s.internLocked(k)
		slab[i] = schedTask{
			id:          id,
			tenant:      s.tenantTagLocked(k),
			key:         k,
			state:       StateExternal,
			worker:      -1,
			wired:       true,
			wasExternal: true,
		}
		st := &slab[i]
		s.tasks[id] = st
		s.recordLocked(st, stateNone)
		s.noteTransLocked(stateNone, st.state)
	}
	s.externalC.Add(int64(len(keys)))
	return handled, nil
}

// dataItem describes one scattered value already resident on a worker.
// The key is interned by the client boundary before the data message
// departs, so the scheduler works on IDs throughout.
type dataItem struct {
	key     taskgraph.Key
	id      taskID
	bytes   int64
	worker  int
	readyAt vtime.Time // when the value landed in worker memory
}

// updateData records scattered data. In external mode, each key must name
// an existing task in the external state; the scheduler then follows the
// same transition path as for a finished task (external → memory,
// unblocking dependents). In the default mode (plain Dask scatter), a new
// task is created directly in memory.
func (s *scheduler) updateData(items []dataItem, external bool, arrival vtime.Time) (vtime.Time, error) {
	s.updateDataC.Inc()
	handled := s.handle("update-data", arrival, s.cl.cfg.SchedulerTaskCost*vtime.Dur(len(items)))
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("update-data", handled)
	for _, it := range items {
		st := s.tasks[it.id]
		if s.deadWorkers[it.worker] {
			// The target died before the scheduler processed the update:
			// the shipped bytes are lost with it. External keys stay in
			// the external state (the producer retries elsewhere); fresh
			// scatters are simply not registered.
			return handled, fmt.Errorf("dask: update-data for %q targets worker %d: %w",
				it.key, it.worker, ErrWorkerDied)
		}
		if external {
			if st == nil {
				return handled, fmt.Errorf("dask: external update for unknown key %q", it.key)
			}
			if st.state != StateExternal {
				return handled, fmt.Errorf("dask: external update for key %q in state %s", it.key, st.state)
			}
		} else {
			if st != nil {
				if st.state == StateExternal {
					return handled, fmt.Errorf("dask: non-external scatter to external key %q", it.key)
				}
				return handled, fmt.Errorf("dask: scatter to existing key %q", it.key)
			}
			st = &schedTask{
				id:     it.id,
				tenant: s.tenantTagLocked(it.key),
				key:    it.key,
				worker: -1,
				wired:  true,
			}
			s.tasks[it.id] = st
			s.noteTransLocked(stateNone, st.state)
		}
		st.worker = it.worker
		st.bytes = it.bytes
		st.readyAt = it.readyAt
		s.setStateLocked(st, StateMemory)
		s.onMemoryLocked(st)
		s.drainReadyLocked(handled)
	}
	s.cond.Broadcast()
	return handled, nil
}

// taskFinished is the worker's completion report; it triggers the
// transition cascade for dependents.
func (s *scheduler) taskFinished(id taskID, workerID int, finishedAt vtime.Time, bytes int64, arrival vtime.Time) {
	s.taskFinishedC.Inc()
	handled := s.handle("task-finished", arrival, s.cl.cfg.SchedulerTaskCost)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("task-finished", handled)
	st := s.tasks[id]
	if st == nil || st.state != StateProcessing || st.worker != workerID || s.deadWorkers[workerID] {
		// Late, duplicate, or dead-worker report; ignore. The worker
		// check rejects completion reports racing a kill after the
		// workerLost replan reassigned the task elsewhere. The worker
		// stored its result before reporting, so a rejected report must
		// also purge those bytes — the task was released or erred (a
		// dependency died mid-run) and its value must not linger in the
		// store. A duplicate report for a value legitimately resident
		// here is the one stale case that keeps its bytes.
		if !s.deadWorkers[workerID] && !(st != nil && st.state == StateMemory && st.worker == workerID) {
			s.cl.workers[workerID].drop(id, finishedAt)
		}
		return
	}
	st.worker = workerID
	st.bytes = bytes
	st.readyAt = finishedAt
	s.setStateLocked(st, StateMemory)
	s.onMemoryLocked(st)
	s.drainReadyLocked(handled)
	s.cond.Broadcast()
}

// taskErred marks a task failed and cascades the error to dependents.
func (s *scheduler) taskErred(id taskID, err error, arrival vtime.Time) {
	handled := s.handle("task-erred", arrival, s.cl.cfg.SchedulerTaskCost)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("task-erred", handled)
	if st := s.tasks[id]; st != nil {
		s.erredLocked(st, err)
	}
	s.cond.Broadcast()
}

func (s *scheduler) erredLocked(st *schedTask, err error) {
	if st.state == StateErred {
		return
	}
	st.err = err
	s.setStateLocked(st, StateErred)
	for _, d := range st.dependents {
		if dt := s.tasks[d]; dt != nil {
			s.erredLocked(dt, fmt.Errorf("dask: dependency %q erred: %w", st.key, err))
		}
	}
}

// onMemoryLocked unblocks dependents of a task that just reached memory,
// queuing newly-runnable ones on the ready heap. The caller drains the
// heap before returning.
func (s *scheduler) onMemoryLocked(st *schedTask) {
	for _, d := range st.dependents {
		dt := s.tasks[d]
		if dt == nil || dt.state != StateWaiting {
			continue
		}
		dt.missingCount--
		if dt.missingCount == 0 {
			s.pushReadyLocked(dt.priority, dt.id)
		}
	}
}

// drainReadyLocked assigns every queued runnable task in (priority,
// taskID) order. Entries whose task changed state since queuing (erred
// cascade, release) are skipped.
func (s *scheduler) drainReadyLocked(departAt vtime.Time) {
	for s.readyN > 0 {
		id := s.popReadyLocked()
		st := s.tasks[id]
		if st == nil || st.state != StateWaiting || st.missingCount != 0 ||
			(st.fn == nil && st.timed == nil) {
			continue
		}
		s.assignLocked(st, departAt)
	}
}

// popReadyLocked removes the next runnable task: the fair-share layer
// picks the tenant to serve (smallest virtual service), pops that
// tenant's heap, and advances its virtual service by 1/weight.
func (s *scheduler) popReadyLocked() taskID {
	t := s.pickTenantLocked()
	id := s.popQueueLocked(&t.ready)
	s.readyN--
	s.virtualTime = t.vs
	t.vs += 1.0 / t.weight
	t.pops++
	s.totalPops++
	t.popsC.Inc()
	s.tenantsDirty = true
	return id
}

// popQueueLocked removes the next runnable task from one ready heap.
// Without a tie-breaker this is the heap minimum — (priority, taskID)
// order. With one, every entry tied at the minimal priority is a legal
// next pick: the candidates are ordered by task key (content-stable
// across runs, unlike interned IDs) and the breaker chooses among them.
func (s *scheduler) popQueueLocked(q *readyQueue) taskID {
	tb := s.cl.cfg.TieBreak
	if tb == nil || len(*q) < 2 {
		return q.pop()
	}
	minPrio := (*q)[0].priority
	tied := tied(s.readyTied[:0])
	for i, it := range *q {
		if it.priority == minPrio {
			tied = append(tied, tiedCand{idx: i, key: string(s.keys[it.id])})
		}
	}
	s.readyTied = tied
	if len(tied) < 2 {
		return q.pop()
	}
	sort.Sort(tied)
	pick := clampPick(tb.Pick(Decision{Point: PointReadyPop, Key: tied[0].key, N: len(tied)}), len(tied))
	return q.removeAt(tied[pick].idx)
}

// tiedCand is one member of a tied candidate set: its heap index and
// its content-stable sort key.
type tiedCand struct {
	idx int
	key string
}

type tied []tiedCand

func (t tied) Len() int           { return len(t) }
func (t tied) Less(i, j int) bool { return t[i].key < t[j].key }
func (t tied) Swap(i, j int)      { t[i], t[j] = t[j], t[i] }

// assignLocked picks a worker for a ready task and enqueues it there.
func (s *scheduler) assignLocked(st *schedTask, departAt vtime.Time) {
	s.setStateLocked(st, StateReady)
	// Decide worker: most dependency bytes already local; ties go to the
	// lowest worker id. This matches Dask's data-locality-first
	// decide_worker. Dead workers are never chosen. The per-worker byte
	// tallies live in epoch-stamped scratch arrays so deciding allocates
	// nothing.
	if len(s.assignMark) < len(s.cl.workers) {
		s.assignMark = make([]uint32, len(s.cl.workers))
		s.assignBytes = make([]int64, len(s.cl.workers))
	}
	s.assignEpoch++
	touched := s.assignTouched[:0]
	for _, d := range st.deps {
		dt := s.tasks[d]
		if dt != nil && dt.worker >= 0 && dt.state == StateMemory && !s.deadWorkers[dt.worker] {
			w := dt.worker
			if s.assignMark[w] != s.assignEpoch {
				s.assignMark[w] = s.assignEpoch
				s.assignBytes[w] = 0
				touched = append(touched, w)
			}
			s.assignBytes[w] += dt.bytes
		}
	}
	s.assignTouched = touched
	best, bestBytes := -1, int64(-1)
	for _, w := range touched {
		if s.cl.workers[w].pausedAt(departAt) {
			continue // above its memory watermark: let it drain
		}
		if b := s.assignBytes[w]; b > bestBytes || (b == bestBytes && w < best) {
			best, bestBytes = w, b
		}
	}
	if tb := s.cl.cfg.TieBreak; tb != nil && best >= 0 {
		// Every non-paused candidate holding the maximal local bytes is
		// a legal target; let the breaker choose (ids ascend, so the
		// candidate order is stable by construction).
		cands := s.assignCands[:0]
		for _, w := range touched {
			if s.assignBytes[w] == bestBytes && !s.cl.workers[w].pausedAt(departAt) {
				cands = append(cands, w)
			}
		}
		sort.Ints(cands)
		s.assignCands = cands
		if len(cands) > 1 {
			best = cands[clampPick(tb.Pick(Decision{Point: PointAssignWorker, Key: string(st.key), N: len(cands)}), len(cands))]
		}
	}
	if best == -1 {
		live := s.liveWorkersLocked()
		if len(live) == 0 {
			panic("dask: no live workers")
		}
		if tb := s.cl.cfg.TieBreak; tb != nil {
			// Without locality, any non-paused live worker is legal.
			cands := s.assignCands[:0]
			for _, cand := range live {
				if !s.cl.workers[cand].pausedAt(departAt) {
					cands = append(cands, cand)
				}
			}
			s.assignCands = cands
			if len(cands) > 0 {
				best = cands[clampPick(tb.Pick(Decision{Point: PointAssignWorker, Key: string(st.key), N: len(cands)}), len(cands))]
				s.rr++
			}
		}
		if best == -1 {
			// Round-robin over live workers, skipping paused ones (the
			// pausedAt probe is a single relaxed load on ungoverned
			// clusters, so the unmanaged hot path is unchanged).
			for i := range live {
				cand := live[(s.rr+i)%len(live)]
				if !s.cl.workers[cand].pausedAt(departAt) {
					best = cand
					s.rr += i + 1
					break
				}
			}
		}
		if best == -1 {
			// Every live worker is paused. Stalling the ready queue
			// would deadlock the run, so take the least-loaded ledger:
			// liveness beats strictness, and the auditor still bounds
			// the overrun to oversize grants.
			var bestMem int64
			for i, cand := range live {
				cw := s.cl.workers[cand]
				cw.storeMu.RLock()
				mem := cw.memBytes
				cw.storeMu.RUnlock()
				if i == 0 || mem < bestMem {
					best, bestMem = cand, mem
				}
			}
			s.rr++
		}
	}
	st.worker = best
	s.setStateLocked(st, StateProcessing)
	s.tenants[st.tenant].assignedC.Inc()

	// Build dependency locations for the worker-side fetch.
	locs := make([]depLoc, 0, len(st.deps))
	for _, d := range st.deps {
		dt := s.tasks[d]
		locs = append(locs, depLoc{id: d, worker: dt.worker, bytes: dt.bytes, readyAt: dt.readyAt})
	}
	w := s.cl.workers[best]
	arrive := s.cl.xfer(s.cl.schedNode, w.node, s.cl.cfg.ControlMsgBytes, departAt)
	w.enqueue(assignment{id: st.id, key: st.key, fn: st.fn, timed: st.timed, cost: st.cost, outBytes: st.outBytes, priority: st.priority, deps: locs, arriveAt: arrive})
}

// waitFor blocks until every key is in memory (or erred) and returns the
// latest readyAt. An error is returned if any task erred or is unknown.
func (s *scheduler) waitFor(keys []taskgraph.Key, arrival vtime.Time) (vtime.Time, error) {
	handled := s.handle("wait", arrival, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	latest := handled
	for {
		done := true
		latest = handled
		for _, k := range keys {
			st := s.lookupLocked(k)
			if st == nil {
				return handled, fmt.Errorf("dask: wait for unknown key %q", k)
			}
			switch st.state {
			case StateMemory:
				if st.readyAt > latest {
					latest = st.readyAt
				}
			case StateErred:
				return handled, st.err
			default:
				done = false
			}
		}
		if done {
			return latest, nil
		}
		s.cond.Wait()
	}
}

// locate returns the owner of a key in memory, along with the key's
// interned ID (worker object stores are ID-keyed).
func (s *scheduler) locate(key taskgraph.Key) (workerID int, id taskID, bytes int64, readyAt vtime.Time, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lookupLocked(key)
	if st == nil {
		return 0, 0, 0, 0, fmt.Errorf("dask: locate unknown key %q", key)
	}
	if st.state == StateErred {
		return 0, 0, 0, 0, st.err
	}
	if st.state != StateMemory {
		return 0, 0, 0, 0, fmt.Errorf("dask: key %q not in memory (state %s)", key, st.state)
	}
	return st.worker, st.id, st.bytes, st.readyAt, nil
}

// taskState returns the state of a key for tests and monitoring.
func (s *scheduler) taskState(key taskgraph.Key) (State, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.lookupLocked(key)
	if st == nil {
		return 0, false
	}
	return st.state, true
}

// idFor returns the interned ID of a key, if the key has ever been seen.
func (s *scheduler) idFor(key taskgraph.Key) (taskID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.ids[key]
	return id, ok
}

// metadata accounts one bulk metadata message with the given number of
// entries (each entry costs MetadataEntryCost of scheduler CPU).
func (s *scheduler) metadata(entries int, arrival vtime.Time) vtime.Time {
	s.metadataC.Inc()
	s.metadataEntriesC.Add(int64(entries))
	return s.handle("metadata", arrival, s.cl.cfg.MetadataEntryCost*vtime.Dur(entries))
}

// release forgets keys: scheduler state is dropped and worker store
// entries freed (Dask's future release / client cancel for completed
// data). Keys with dependents still registered are refused. The
// released key keeps its interned ID; re-registering the key later
// reuses the same slot.
func (s *scheduler) release(keys []taskgraph.Key, arrival vtime.Time) (vtime.Time, error) {
	handled := s.handle("release", arrival, s.cl.cfg.SchedulerTaskCost*vtime.Dur(len(keys)))
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.endOpLocked()
	s.beginOpLocked("release", handled)
	for _, k := range keys {
		st := s.lookupLocked(k)
		if st == nil {
			continue
		}
		for _, d := range st.dependents {
			if dt := s.tasks[d]; dt != nil {
				return handled, fmt.Errorf("dask: cannot release %q: task %q depends on it", k, dt.key)
			}
		}
	}
	for _, k := range keys {
		st := s.lookupLocked(k)
		if st == nil {
			continue
		}
		if st.state == StateMemory && st.worker >= 0 {
			s.cl.workers[st.worker].drop(st.id, handled)
		}
		if st.state == StateMemory {
			s.tenants[st.tenant].resBytes -= st.bytes
			s.tenantsDirty = true
		}
		for _, d := range st.deps {
			dt := s.tasks[d]
			if dt == nil {
				continue
			}
			for i, x := range dt.dependents {
				if x == st.id {
					dt.dependents = append(dt.dependents[:i], dt.dependents[i+1:]...)
					break
				}
			}
		}
		s.recordReleaseLocked(st)
		s.noteReleaseLocked(st.state)
		s.tasks[st.id] = nil
	}
	return handled, nil
}

// heartbeat accounts n client heartbeat messages ending at arrival.
func (s *scheduler) heartbeat(n int, arrival vtime.Time) vtime.Time {
	var end vtime.Time = arrival
	for i := 0; i < n; i++ {
		s.heartbeatsC.Inc()
		end = s.handle("heartbeat", arrival, 0)
	}
	return end
}

// varSet stores a distributed Variable value.
func (s *scheduler) varSet(name string, value any, arrival vtime.Time) vtime.Time {
	s.variableOpsC.Inc()
	s.cl.reg.Counter("scheduler", "variable_ops",
		metrics.L("name", name), metrics.L("op", "set")).Inc()
	handled := s.handle("var-set", arrival, 0)
	s.mu.Lock()
	s.vars[name] = &varEntry{set: true, value: value, setAt: handled}
	s.mu.Unlock()
	s.cond.Broadcast()
	return handled
}

// varGet blocks until the Variable is set and returns its value and the
// virtual time at which the response can leave the scheduler.
func (s *scheduler) varGet(name string, arrival vtime.Time) (any, vtime.Time) {
	s.variableOpsC.Inc()
	s.cl.reg.Counter("scheduler", "variable_ops",
		metrics.L("name", name), metrics.L("op", "get")).Inc()
	handled := s.handle("var-get", arrival, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if e, ok := s.vars[name]; ok && e.set {
			avail := handled
			if e.setAt > avail {
				avail = e.setAt
			}
			return e.value, avail
		}
		s.cond.Wait()
	}
}

// queuePut appends a value to a distributed Queue.
func (s *scheduler) queuePut(name string, value any, arrival vtime.Time) vtime.Time {
	s.queueOpsC.Inc()
	s.cl.reg.Counter("scheduler", "queue_ops",
		metrics.L("name", name), metrics.L("op", "put")).Inc()
	handled := s.handle("queue-put", arrival, 0)
	s.mu.Lock()
	q := s.queues[name]
	if q == nil {
		q = &queueEntry{}
		s.queues[name] = q
	}
	q.items = append(q.items, queueItem{value: value, putAt: handled})
	s.mu.Unlock()
	s.cond.Broadcast()
	return handled
}

// queueGet blocks until the Queue is non-empty and pops its head.
func (s *scheduler) queueGet(name string, arrival vtime.Time) (any, vtime.Time) {
	s.queueOpsC.Inc()
	s.cl.reg.Counter("scheduler", "queue_ops",
		metrics.L("name", name), metrics.L("op", "get")).Inc()
	handled := s.handle("queue-get", arrival, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if q := s.queues[name]; q != nil && len(q.items) > 0 {
			it := q.items[0]
			q.items = q.items[1:]
			avail := handled
			if it.putAt > avail {
				avail = it.putAt
			}
			return it.value, avail
		}
		s.cond.Wait()
	}
}
