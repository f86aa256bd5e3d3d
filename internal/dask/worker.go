package dask

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"deisago/internal/metrics"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// depLoc tells a worker where to fetch one dependency. Dependencies are
// addressed by interned task ID; the human-readable key never crosses
// the scheduler→worker wire (the paper's metadata-slimming argument:
// control messages carry dense handles, not strings).
type depLoc struct {
	id      taskID
	worker  int
	bytes   int64
	readyAt vtime.Time
}

// assignment is one task handed to a worker by the scheduler. The key
// rides along only for traces and error text; all data-plane lookups use
// the ID.
type assignment struct {
	id       taskID
	key      taskgraph.Key
	fn       taskgraph.Fn
	timed    taskgraph.TimedFn
	cost     vtime.Dur
	outBytes int64
	priority int
	deps     []depLoc
	arriveAt vtime.Time
}

// inboxItem is one queued assignment plus its arrival sequence number;
// the inbox heap orders by (priority, seq), i.e. highest Dask priority
// first and FIFO among equals — the same pick the seed's linear
// min-scan made, at O(log n) instead of O(n) per dequeue.
type inboxItem struct {
	a   assignment
	seq uint64
}

type storeEntry struct {
	value   any
	bytes   int64
	readyAt vtime.Time
	// external marks a block published through the external-task path
	// (the coupling's data plane). External blocks are pinned: the
	// producer placed them under the contract, so the spill tier never
	// evicts them.
	external bool
	// lru is the entry's last-access sequence number; the spill tier
	// evicts the resident non-external entry with the smallest value.
	// Sequence numbers are unique per worker, so eviction order is a
	// deterministic function of the access history.
	lru uint64
}

// memWindow is a temporary memory-limit override on one worker (the
// chaos harness's memlimit event): inside [start, end) the worker's
// effective limit is min(configured limit, limit). end <= 0 means
// open-ended.
type memWindow struct {
	limit      int64
	start, end vtime.Time
}

// worker executes tasks assigned by the scheduler and stores results in
// its local object store. Each worker runs one executor thread, matching
// the paper's one-worker-per-process deployment.
type worker struct {
	cl   *Cluster
	id   int
	node netsim.NodeID
	cpu  *vtime.Resource

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []inboxItem // binary min-heap on (priority, seq)
	seq      uint64
	quit     bool
	dead     bool
	killedAt vtime.Time

	storeMu      sync.RWMutex
	store        map[taskID]storeEntry // resident blocks
	spilled      map[taskID]storeEntry // blocks evicted to the spill tier
	memBytes     int64                 // sum of resident entry sizes, guarded by storeMu
	spilledBytes int64                 // sum of spilled entry sizes, guarded by storeMu
	lruSeq       uint64                // access counter feeding storeEntry.lru
	windows      []memWindow           // chaos memlimit windows, guarded by storeMu
	// lastLimit records the effective limit observed by the most recent
	// governance pass (0 while ungoverned). The auditor checks the
	// ledger against it: re-deriving the limit would need the audit
	// time, which the worker does not track.
	lastLimit int64

	// governed flips to true once the worker has a memory limit or any
	// memlimit window; while false, every store operation takes the
	// zero-cost fast path (no LRU stamps, no governance scan).
	governedFlag atomic.Bool

	// Registry handles, created once at construction.
	mMem      *metrics.Gauge   // object-store bytes held
	mSpillB   *metrics.Counter // cumulative bytes spilled (cluster-wide)
	mSpillEv  *metrics.Counter // spill events (cluster-wide)
	mExecuted *metrics.Counter // tasks completed
	mRecv     *metrics.Counter // bytes fetched from peer workers
	mScatter  *metrics.Counter // bytes received via client scatter
}

func newWorker(cl *Cluster, id int, node netsim.NodeID) *worker {
	w := &worker{
		cl:    cl,
		id:    id,
		node:  node,
		cpu:   vtime.NewResource(fmt.Sprintf("worker%d-cpu", id)),
		store: make(map[taskID]storeEntry),
	}
	lid := metrics.LInt("id", id)
	w.mMem = cl.reg.Gauge("worker", "memory_bytes", lid)
	w.mSpillB = cl.reg.Counter("memory", "spilled_bytes")
	w.mSpillEv = cl.reg.Counter("memory", "spill_events")
	w.mExecuted = cl.reg.Counter("worker", "tasks_executed", lid)
	w.mRecv = cl.reg.Counter("worker", "bytes_received", lid)
	w.mScatter = cl.reg.Counter("worker", "scatter_bytes_received", lid)
	w.cond = sync.NewCond(&w.mu)
	if cl.cfg.WorkerMemoryLimit > 0 {
		w.governedFlag.Store(true)
	}
	return w
}

func inboxLess(a, b inboxItem) bool {
	return a.a.priority < b.a.priority ||
		(a.a.priority == b.a.priority && a.seq < b.seq)
}

func (w *worker) enqueue(a assignment) {
	w.mu.Lock()
	if !w.dead {
		w.inbox = append(w.inbox, inboxItem{a: a, seq: w.seq})
		w.seq++
		for i := len(w.inbox) - 1; i > 0; {
			parent := (i - 1) / 2
			if !inboxLess(w.inbox[i], w.inbox[parent]) {
				break
			}
			w.inbox[i], w.inbox[parent] = w.inbox[parent], w.inbox[i]
			i = parent
		}
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// popInboxLocked removes and returns the heap minimum. Caller holds w.mu
// and guarantees the inbox is non-empty.
func (w *worker) popInboxLocked() assignment {
	top := w.inbox[0].a
	n := len(w.inbox) - 1
	w.inbox[0] = w.inbox[n]
	w.inbox[n] = inboxItem{} // release the assignment's references
	w.inbox = w.inbox[:n]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && inboxLess(w.inbox[l], w.inbox[small]) {
			small = l
		}
		if r := 2*i + 2; r < n && inboxLess(w.inbox[r], w.inbox[small]) {
			small = r
		}
		if small == i {
			break
		}
		w.inbox[i], w.inbox[small] = w.inbox[small], w.inbox[i]
		i = small
	}
	return top
}

func (w *worker) stop() {
	w.mu.Lock()
	w.quit = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (w *worker) run() {
	for {
		w.mu.Lock()
		for len(w.inbox) == 0 && !w.quit && !w.dead {
			w.cond.Wait()
		}
		if w.quit || w.dead {
			w.mu.Unlock()
			return
		}
		a := w.popInboxLocked()
		w.mu.Unlock()
		w.exec(a)
	}
}

// governed reports whether this worker does any memory accounting at
// all. While false, put/fetch run the original unmanaged path: no LRU
// stamps, no limit scan, no extra allocations — the zero-spill fast
// path the scheduler benchmarks gate.
func (w *worker) governed() bool {
	return w.governedFlag.Load()
}

// installMemWindow adds a temporary limit override (chaos memlimit).
func (w *worker) installMemWindow(limit int64, start, end vtime.Time) {
	w.storeMu.Lock()
	w.windows = append(w.windows, memWindow{limit: limit, start: start, end: end})
	w.storeMu.Unlock()
	w.governedFlag.Store(true)
}

// effectiveLimitLocked returns the limit in force at the given virtual
// time: the configured WorkerMemoryLimit tightened by any active
// memlimit window. 0 means unlimited. Caller holds storeMu.
func (w *worker) effectiveLimitLocked(at vtime.Time) int64 {
	eff := w.cl.cfg.WorkerMemoryLimit
	for _, win := range w.windows {
		if at < win.start || (win.end > 0 && at >= win.end) {
			continue
		}
		if win.limit > 0 && (eff == 0 || win.limit < eff) {
			eff = win.limit
		}
	}
	return eff
}

// victimLocked picks the least-recently-used resident non-external
// block, excluding keep (the entry being inserted or gathered).
// Governed stores stamp unique LRU sequence numbers, but blocks stored
// before governance switched on (a memlimit window installed mid-run)
// all carry stamp 0 — those ties break on the lowest task ID, so the
// choice is deterministic despite map iteration order. Returns -1 if
// nothing is evictable. A TieBreaker may choose any tied-LRU block.
func (w *worker) victimLocked(keep taskID) taskID {
	victim := taskID(-1)
	var vlru uint64
	for id, e := range w.store {
		if e.external || id == keep {
			continue
		}
		if victim < 0 || e.lru < vlru || (e.lru == vlru && id < victim) {
			victim, vlru = id, e.lru
		}
	}
	if victim < 0 {
		return -1
	}
	if tb := w.cl.cfg.TieBreak; tb != nil {
		var cands []int
		for id, e := range w.store {
			if !e.external && id != keep && e.lru == vlru {
				cands = append(cands, int(id))
			}
		}
		if len(cands) > 1 {
			sort.Ints(cands)
			pick := clampPick(tb.Pick(Decision{Point: PointSpillVictim,
				Key: fmt.Sprintf("w%d@%d", w.id, vlru), N: len(cands)}), len(cands))
			victim = taskID(cands[pick])
		}
	}
	return victim
}

// spillLocked evicts one resident block to the spill tier, charging the
// PFS metadata + stripe-write cost in virtual time. The value itself
// stays in host memory (the simulator models costs, not I/O); only the
// ledger moves. Returns when the write completes. Caller holds storeMu.
func (w *worker) spillLocked(id taskID, at vtime.Time) vtime.Time {
	e := w.store[id]
	fs := w.cl.spill
	path := fmt.Sprintf("spill/w%d/%d", w.id, id)
	end := fs.Create(path, at)
	end, err := fs.WriteAtCost(path, 0, nil, e.bytes, end)
	if err != nil {
		panic(fmt.Sprintf("dask: spill of task id %d on worker %d failed: %v", id, w.id, err))
	}
	delete(w.store, id)
	w.memBytes -= e.bytes
	e.readyAt = end
	if w.spilled == nil {
		w.spilled = make(map[taskID]storeEntry)
	}
	w.spilled[id] = e
	w.spilledBytes += e.bytes
	w.mSpillB.Add(e.bytes)
	w.mSpillEv.Inc()
	return end
}

// governLocked spills LRU blocks until the resident ledger fits the
// effective limit at the given time (keep is never evicted). External
// blocks are pinned, so a store full of published blocks may legally
// stay above the limit — the auditor's oversize-grant escape hatch.
// Returns when the last spill write completes. Caller holds storeMu.
func (w *worker) governLocked(at vtime.Time, keep taskID) vtime.Time {
	eff := w.effectiveLimitLocked(at)
	w.lastLimit = eff
	if eff == 0 {
		return at
	}
	end := at
	for w.memBytes > eff {
		victim := w.victimLocked(keep)
		if victim < 0 {
			break
		}
		end = w.spillLocked(victim, end)
	}
	return end
}

// put inserts a value into the worker's object store (used by both task
// execution and client scatter). external pins the block against
// spilling (published external blocks are placed under the contract).
func (w *worker) put(id taskID, value any, bytes int64, readyAt vtime.Time, external bool) {
	w.storeMu.Lock()
	if old, ok := w.store[id]; ok {
		w.memBytes -= old.bytes
	}
	e := storeEntry{value: value, bytes: bytes, readyAt: readyAt, external: external}
	if w.governed() {
		if old, ok := w.spilled[id]; ok {
			delete(w.spilled, id)
			w.spilledBytes -= old.bytes
		}
		w.lruSeq++
		e.lru = w.lruSeq
	}
	w.store[id] = e
	w.memBytes += bytes
	if w.governed() {
		w.governLocked(readyAt, id)
	}
	mem := w.memBytes
	w.storeMu.Unlock()
	w.mMem.Set(float64(mem), readyAt)
}

// get returns a stored value without touching governance state (no LRU
// bump, no unspill charge). It panics if the ID is absent: the
// scheduler only references data it has been told is resident, so absence
// is a protocol bug, not a user error. Data-plane reads use fetch; get
// remains for inspection paths that must not perturb eviction order.
func (w *worker) get(id taskID) storeEntry {
	w.storeMu.RLock()
	e, ok := w.store[id]
	if !ok {
		e, ok = w.spilled[id]
	}
	w.storeMu.RUnlock()
	if !ok {
		panic(fmt.Sprintf("dask: worker %d has no task id %d", w.id, id))
	}
	return e
}

// fetch returns a stored value for a data-plane read at the given
// virtual time, transparently unspilling it first: a spilled block is
// read back from the spill tier (charging the PFS read cost), made
// resident again, and governance re-runs in case the unspill pushed the
// ledger over the limit. The returned entry's readyAt includes the read
// completion, so consumers naturally wait for the unspill in virtual
// time. Ungoverned workers take a read-locked fast path identical to
// the pre-governance store.
func (w *worker) fetch(id taskID, at vtime.Time) storeEntry {
	if !w.governed() {
		return w.get(id)
	}
	w.storeMu.Lock()
	e, ok := w.store[id]
	if ok {
		w.lruSeq++
		e.lru = w.lruSeq
		w.store[id] = e
		w.storeMu.Unlock()
		return e
	}
	e, ok = w.spilled[id]
	if !ok {
		w.storeMu.Unlock()
		panic(fmt.Sprintf("dask: worker %d has no task id %d", w.id, id))
	}
	start := at
	if e.readyAt > start {
		start = e.readyAt
	}
	path := fmt.Sprintf("spill/w%d/%d", w.id, id)
	_, end, err := w.cl.spill.ReadAtCostBuf(path, 0, 0, e.bytes, nil, start)
	if err != nil {
		w.storeMu.Unlock()
		panic(fmt.Sprintf("dask: unspill of task id %d on worker %d failed: %v", id, w.id, err))
	}
	delete(w.spilled, id)
	w.spilledBytes -= e.bytes
	e.readyAt = end
	w.lruSeq++
	e.lru = w.lruSeq
	w.store[id] = e
	w.memBytes += e.bytes
	w.governLocked(end, id)
	mem := w.memBytes
	w.storeMu.Unlock()
	w.mMem.Set(float64(mem), end)
	return e
}

// drop removes an entry from the object store (release path) at the
// given virtual time, whichever tier holds it.
func (w *worker) drop(id taskID, at vtime.Time) {
	w.storeMu.Lock()
	if old, ok := w.store[id]; ok {
		w.memBytes -= old.bytes
	}
	delete(w.store, id)
	if old, ok := w.spilled[id]; ok {
		w.spilledBytes -= old.bytes
		delete(w.spilled, id)
	}
	mem := w.memBytes
	w.storeMu.Unlock()
	w.mMem.Set(float64(mem), at)
}

// has reports whether the worker holds an entry in either tier.
func (w *worker) has(id taskID) bool {
	w.storeMu.RLock()
	_, ok := w.store[id]
	if !ok {
		_, ok = w.spilled[id]
	}
	w.storeMu.RUnlock()
	return ok
}

// admit applies scatter backpressure: before a producer ships total
// bytes to this worker, the worker spills to make room; if even a full
// spill cannot fit the batch under the effective limit, behaviour
// splits on why. A chaos-window squeeze rejects with ErrWorkerPaused —
// the window is time-bounded and the producer's virtual-time backoff
// carries it past the squeeze. The configured base limit instead grants
// the admission (pinned external blocks have nowhere else to live;
// refusing forever would wedge the coupling) — the auditor's
// oversize-grant escape hatch covers this. Returns the virtual time the
// transfer may start (after any spill writes).
func (w *worker) admit(total int64, at vtime.Time) (vtime.Time, error) {
	if !w.governed() {
		return at, nil
	}
	w.storeMu.Lock()
	defer w.storeMu.Unlock()
	eff := w.effectiveLimitLocked(at)
	w.lastLimit = eff
	if eff == 0 {
		return at, nil
	}
	end := at
	for w.memBytes+total > eff {
		victim := w.victimLocked(-1)
		if victim < 0 {
			break
		}
		end = w.spillLocked(victim, end)
	}
	if w.memBytes+total <= eff {
		return end, nil
	}
	base := w.cl.cfg.WorkerMemoryLimit
	if eff < base || base == 0 {
		// Squeezed by a memlimit window: tell the producer when every
		// active squeeze lifts, so its retry can block in virtual time
		// to that point instead of burning attempts inside the window.
		// An open-ended window offers no such horizon; the retry policy
		// then bounds the wait.
		retry := at
		for _, win := range w.windows {
			if at < win.start || (win.end > 0 && at >= win.end) || win.limit <= 0 {
				continue
			}
			if win.end > retry {
				retry = win.end
			}
		}
		return retry, fmt.Errorf("dask: worker %d paused at %d/%d bytes, cannot admit %d more: %w",
			w.id, w.memBytes, eff, total, ErrWorkerPaused)
	}
	return end, nil
}

// pausedAt reports whether the worker sits at or above its high
// watermark at the given virtual time — the scheduler stops assigning
// ready tasks to paused workers and bridge failover skips them.
func (w *worker) pausedAt(at vtime.Time) bool {
	if !w.governed() {
		return false
	}
	w.storeMu.RLock()
	eff := w.effectiveLimitLocked(at)
	mem := w.memBytes
	w.storeMu.RUnlock()
	return eff > 0 && float64(mem) >= highWatermark*float64(eff)
}

// memAudit snapshots the ledger for the invariant auditor: both
// ledgers, recomputed sums over the maps, whether any ID sits in both
// tiers or any external block was spilled, the number of evictable
// resident blocks, and the limit seen by the last governance pass.
func (w *worker) memAudit() (mem, sumRes, spilledB, sumSp int64, overlap, extSpilled bool, evictable int, lastLimit int64) {
	w.storeMu.RLock()
	defer w.storeMu.RUnlock()
	for _, e := range w.store {
		sumRes += e.bytes
		if !e.external {
			evictable++
		}
	}
	for id, e := range w.spilled {
		sumSp += e.bytes
		if e.external {
			extSpilled = true
		}
		if _, ok := w.store[id]; ok {
			overlap = true
		}
	}
	return w.memBytes, sumRes, w.spilledBytes, sumSp, overlap, extSpilled, evictable, w.lastLimit
}

// exec fetches dependencies, runs the task, stores the result, and
// reports completion to the scheduler.
func (w *worker) exec(a assignment) {
	vals := make([]any, len(a.deps))
	depReady := a.arriveAt
	for i, d := range a.deps {
		if d.worker == w.id {
			e := w.fetch(d.id, a.arriveAt)
			vals[i] = e.value
			if e.readyAt > depReady {
				depReady = e.readyAt
			}
			continue
		}
		peer := w.cl.worker(d.worker)
		e := peer.fetch(d.id, a.arriveAt)
		vals[i] = e.value
		depart := a.arriveAt
		if e.readyAt > depart {
			depart = e.readyAt
		}
		arrive := w.cl.xfer(peer.node, w.node, e.bytes, depart)
		w.mRecv.Add(e.bytes)
		if arrive > depReady {
			depReady = arrive
		}
	}

	start, end := w.cpu.Acquire(depReady, a.cost+w.cl.cfg.WorkerTaskOverhead)
	value, dynEnd, err := w.invoke(a, vals, start)
	if dynEnd > end {
		w.cpu.Extend(dynEnd)
		end = dynEnd
	}

	// A kill may have landed while the task body ran. The span must not
	// look like a normal completion: it is closed as aborted, truncated
	// to the kill time, and neither the result nor a completion report
	// leaves the worker (the scheduler has already re-planned the task).
	w.mu.Lock()
	dead, killedAt := w.dead, w.killedAt
	w.mu.Unlock()
	if dead {
		abortEnd := end
		if killedAt < abortEnd {
			abortEnd = killedAt
		}
		if abortEnd < start {
			abortEnd = start
		}
		if tr := w.cl.tracer(); tr != nil {
			tr.add(TraceEvent{Key: a.key, Worker: w.id, Start: start, End: abortEnd, Aborted: true})
		}
		return
	}

	if tr := w.cl.tracer(); tr != nil {
		tr.add(TraceEvent{Key: a.key, Worker: w.id, Start: start, End: end, Erred: err != nil})
	}
	report := w.cl.xfer(w.node, w.cl.schedNode, w.cl.cfg.ControlMsgBytes, end)
	if err != nil {
		w.cl.sched.taskErred(a.id, err, report)
		return
	}
	bytes := SizeOf(value)
	if a.outBytes > 0 {
		bytes = a.outBytes
	}
	w.put(a.id, value, bytes, end, false)
	w.mExecuted.Inc()
	w.cl.sched.taskFinished(a.id, w.id, end, bytes, report)
}

// invoke runs the task body, converting panics into task errors, as
// Dask converts Python exceptions in tasks into task failures rather
// than crashing the worker.
func (w *worker) invoke(a assignment, vals []any, start vtime.Time) (value any, dynEnd vtime.Time, err error) {
	defer func() {
		if r := recover(); r != nil {
			value = nil
			err = fmt.Errorf("dask: task %q panicked: %v", a.key, r)
		}
	}()
	if a.timed != nil {
		return a.timed(vals, start)
	}
	value, err = a.fn(vals)
	return value, start, err
}
