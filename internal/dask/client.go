package dask

import (
	"fmt"
	"math"

	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// Client is a process connected to the cluster: the analytics client, or
// — in the deisa model — each simulation-side bridge (the bridge is
// "built in the Dask client class", §2.1). Each client has its own
// virtual clock and an optional heartbeat interval; the paper's DEISA1
// baseline keeps Dask's 5 s default, DEISA2 raises it to 60 s, and DEISA3
// sets it to infinity.
type Client struct {
	name    string
	node    netsim.NodeID
	cluster *Cluster
	clock   *vtime.Clock

	heartbeatInterval vtime.Dur
	lastHeartbeat     vtime.Time

	// dataBuf is scratch for Scatter's dataItem batch. The scheduler's
	// updateData consumes it synchronously inside the roundTrip closure
	// and copies out only field values, so the slice can be reused across
	// calls; it is cleared after each. A Client is driven by one goroutine.
	dataBuf []dataItem
}

// NewClient connects a client at the given fabric node. heartbeat is the
// interval between heartbeat messages to the scheduler; zero or +Inf
// disables them.
func (c *Cluster) NewClient(name string, node netsim.NodeID, heartbeat vtime.Dur) *Client {
	return &Client{
		name:              name,
		node:              node,
		cluster:           c,
		clock:             vtime.NewClock(0),
		heartbeatInterval: heartbeat,
	}
}

// Name returns the client name.
func (cl *Client) Name() string { return cl.name }

// Clock returns the client's virtual clock.
func (cl *Client) Clock() *vtime.Clock { return cl.clock }

// Now returns the client's current virtual time.
func (cl *Client) Now() vtime.Time { return cl.clock.Now() }

// Compute advances the client's clock by local work.
func (cl *Client) Compute(d vtime.Dur) { cl.clock.Advance(d) }

// Cluster returns the cluster this client is connected to.
func (cl *Client) Cluster() *Cluster { return cl.cluster }

// roundTrip sends a control message of the given size to the scheduler,
// invokes f with its arrival time to obtain the scheduler-side completion
// time, then syncs the client clock with the response arrival.
func (cl *Client) roundTrip(reqBytes int64, f func(arrival vtime.Time) vtime.Time) {
	depart := cl.clock.Now()
	arrival := cl.cluster.xfer(cl.node, cl.cluster.schedNode, reqBytes, depart)
	done := f(arrival)
	reply := cl.cluster.xfer(cl.cluster.schedNode, cl.node, cl.cluster.cfg.ControlMsgBytes, done)
	cl.clock.Sync(reply)
}

// Future is a client-side handle on a task result, mirroring the
// scheduler task of the same key.
type Future struct {
	Key    taskgraph.Key
	client *Client
}

// Submit registers a task graph on the scheduler and returns futures for
// the requested target keys. The graph is culled to the targets first
// (as dask.optimize does). Dependencies that are not in the graph must
// already exist on the scheduler — scattered data or external tasks.
func (cl *Client) Submit(g *taskgraph.Graph, targets []taskgraph.Key) ([]*Future, error) {
	externals := cl.knownExternalDeps(g)
	culled, err := g.Cull(targets, externals)
	if err != nil {
		return nil, err
	}
	reqBytes := cl.cluster.cfg.ControlMsgBytes +
		cl.cluster.cfg.MetadataBytesPerKey*int64(culled.Len())
	var serr error
	cl.roundTrip(reqBytes, func(arrival vtime.Time) vtime.Time {
		done, e := cl.cluster.sched.submitGraph(culled, arrival)
		serr = e
		return done
	})
	if serr != nil {
		return nil, serr
	}
	futs := make([]*Future, len(targets))
	for i, k := range targets {
		futs[i] = &Future{Key: k, client: cl}
	}
	return futs, nil
}

// knownExternalDeps collects graph dependencies that are absent from the
// graph (satisfied by scheduler-resident data) for client-side culling.
func (cl *Client) knownExternalDeps(g *taskgraph.Graph) map[taskgraph.Key]bool {
	ext := map[taskgraph.Key]bool{}
	g.Walk(func(_ taskgraph.Key, t *taskgraph.Task) bool {
		for _, d := range t.Deps {
			if !g.Has(d) {
				ext[d] = true
			}
		}
		return true
	})
	return ext
}

// ExternalFutures creates tasks in the external state for the given keys
// — the deisa-mode future creation of §2.2 ("to create an external task
// we need to create a future by specifying a unique external key and
// setting the external argument to true") — and returns their futures.
func (cl *Client) ExternalFutures(keys []taskgraph.Key) ([]*Future, error) {
	reqBytes := cl.cluster.cfg.ControlMsgBytes +
		cl.cluster.cfg.MetadataBytesPerKey*int64(len(keys))
	var serr error
	cl.roundTrip(reqBytes, func(arrival vtime.Time) vtime.Time {
		done, e := cl.cluster.sched.createExternal(keys, arrival)
		serr = e
		return done
	})
	if serr != nil {
		return nil, serr
	}
	futs := make([]*Future, len(keys))
	for i, k := range keys {
		futs[i] = &Future{Key: k, client: cl}
	}
	return futs, nil
}

// ScatterItem is one value shipped to a worker by Scatter.
type ScatterItem struct {
	Key   taskgraph.Key
	Value any
	// Bytes, when positive, overrides the modelled wire size of the
	// value (used to model paper-scale blocks over small test arrays).
	Bytes int64
}

// Scatter ships values into worker memory and informs the scheduler with
// one update-data message, as the deisa bridges do every timestep. With
// external=true the keys must name existing external tasks, and the
// scheduler runs the finished-task transition path for them; with
// external=false the keys must be fresh, and plain pure-data tasks are
// created (the DEISA1 / classic Dask behaviour).
//
// The call blocks, in virtual time, until both the data transfer to the
// worker and the scheduler's acknowledgment complete — the two
// communications the paper measures as the scatter cost (§3.3.1).
func (cl *Client) Scatter(items []ScatterItem, external bool, workerID int) error {
	if len(items) == 0 {
		return nil
	}
	w := cl.cluster.worker(workerID)
	depart := cl.clock.Now()
	// Memory governance: a limited worker makes room (spilling in
	// virtual time) before the batch ships, or refuses it entirely when
	// a chaos window has squeezed its limit below the batch — the
	// producer's retry/backoff turns that refusal into backpressure.
	if w.governed() {
		var total int64
		for _, it := range items {
			if it.Bytes > 0 {
				total += it.Bytes
			} else {
				total += SizeOf(it.Value)
			}
		}
		admitted, err := w.admit(total, depart)
		if err != nil {
			cl.clock.Sync(admitted)
			return err
		}
		depart = admitted
	}
	// Data messages to the worker.
	var lastData vtime.Time
	if cap(cl.dataBuf) < len(items) {
		cl.dataBuf = make([]dataItem, len(items))
	}
	dataItems := cl.dataBuf[:len(items)]
	for i, it := range items {
		bytes := it.Bytes
		if bytes <= 0 {
			bytes = SizeOf(it.Value)
		}
		// Intern the key at the API boundary: worker stores and the
		// scheduler work on dense task IDs from here on.
		id := cl.cluster.sched.intern(it.Key)
		arrive := cl.cluster.xfer(cl.node, w.node, bytes, depart)
		w.mScatter.Add(bytes)
		if arrive > lastData {
			lastData = arrive
		}
		dataItems[i] = dataItem{key: it.Key, id: id, value: it.Value, bytes: bytes, worker: workerID, readyAt: arrive}
	}
	// One metadata message to the scheduler.
	reqBytes := cl.cluster.cfg.ControlMsgBytes +
		cl.cluster.cfg.MetadataBytesPerKey*int64(len(items))
	var serr error
	cl.roundTrip(reqBytes, func(arrival vtime.Time) vtime.Time {
		done, e := cl.cluster.sched.updateData(dataItems, external, arrival)
		serr = e
		return done
	})
	clear(dataItems)
	cl.clock.Sync(lastData)
	return serr
}

// Persist submits the graph and returns futures without waiting for
// completion — results stay distributed in worker memory (Listing 2's
// client.persist). It is Submit under Dask's name for this pattern.
func (cl *Client) Persist(g *taskgraph.Graph, targets []taskgraph.Key) ([]*Future, error) {
	return cl.Submit(g, targets)
}

// Wait blocks until all futures are in memory and syncs the client clock
// to the latest completion. It returns the first error if any task erred.
func (cl *Client) Wait(futs []*Future) error {
	keys := make([]taskgraph.Key, len(futs))
	for i, f := range futs {
		keys[i] = f.Key
	}
	var werr error
	cl.roundTrip(cl.cluster.cfg.ControlMsgBytes, func(arrival vtime.Time) vtime.Time {
		ready, e := cl.cluster.sched.waitFor(keys, arrival)
		werr = e
		return ready
	})
	return werr
}

// Gather waits for the futures and pulls their values to the client,
// charging worker→client transfers. Results are returned in future order.
func (cl *Client) Gather(futs []*Future) ([]any, error) {
	if err := cl.Wait(futs); err != nil {
		return nil, err
	}
	cl.cluster.sched.gatherC.Inc()
	out := make([]any, len(futs))
	depart := cl.clock.Now()
	var last vtime.Time = depart
	for i, f := range futs {
		wid, id, bytes, readyAt, err := cl.cluster.sched.locate(f.Key)
		if err != nil {
			return nil, err
		}
		w := cl.cluster.worker(wid)
		e, ok := w.fetch(id, depart)
		if !ok {
			return nil, fmt.Errorf("dask: key %q was released during gather", f.Key)
		}
		out[i] = e.value
		from := depart
		if readyAt > from {
			from = readyAt
		}
		if e.readyAt > from {
			from = e.readyAt // unspill read completes before the pull
		}
		arrive := cl.cluster.xfer(w.node, cl.node, bytes, from)
		if arrive > last {
			last = arrive
		}
	}
	cl.clock.Sync(last)
	return out, nil
}

// Result waits for a single future and returns its value.
func (f *Future) Result() (any, error) {
	vals, err := f.client.Gather([]*Future{f})
	if err != nil {
		return nil, err
	}
	return vals[0], nil
}

// State returns the scheduler-side state of the future's task.
func (f *Future) State() (State, bool) {
	return f.client.cluster.sched.taskState(f.Key)
}

// Done reports whether the task has reached a terminal state (memory or
// erred).
func (f *Future) Done() bool {
	st, ok := f.State()
	return ok && (st == StateMemory || st == StateErred)
}

// Release forgets the futures' results: scheduler state is dropped and
// worker memory freed. Releasing a key that other registered tasks still
// depend on is an error; unknown keys are ignored.
func (cl *Client) Release(futs []*Future) error {
	keys := make([]taskgraph.Key, len(futs))
	for i, f := range futs {
		keys[i] = f.Key
	}
	var rerr error
	cl.roundTrip(cl.cluster.cfg.ControlMsgBytes+cl.cluster.cfg.MetadataBytesPerKey*int64(len(keys)),
		func(arrival vtime.Time) vtime.Time {
			done, e := cl.cluster.sched.release(keys, arrival)
			rerr = e
			return done
		})
	return rerr
}

// HeartbeatTick sends any heartbeat messages owed since the last tick,
// based on the client's virtual clock, and returns how many were sent.
// Bridges call this once per simulation iteration; with an infinite
// interval (DEISA3) it never sends anything.
func (cl *Client) HeartbeatTick() int {
	iv := cl.heartbeatInterval
	if iv <= 0 || math.IsInf(iv, 1) {
		return 0
	}
	now := cl.clock.Now()
	n := int((now - cl.lastHeartbeat) / iv)
	if n <= 0 {
		return 0
	}
	cl.lastHeartbeat += vtime.Dur(n) * iv
	arrival := cl.cluster.xfer(cl.node, cl.cluster.schedNode,
		cl.cluster.cfg.ControlMsgBytes*int64(n), now)
	cl.cluster.sched.heartbeat(n, arrival)
	return n
}

// SendMetadata posts a bulk metadata message with the given number of
// entries to the scheduler and blocks until it is processed. The DEISA1
// bridges call this every timestep (the metadata traffic of §2.1).
func (cl *Client) SendMetadata(entries int) {
	reqBytes := cl.cluster.cfg.ControlMsgBytes +
		cl.cluster.cfg.MetadataBytesPerKey*int64(entries)
	cl.roundTrip(reqBytes, func(arrival vtime.Time) vtime.Time {
		return cl.cluster.sched.metadata(entries, arrival)
	})
}

// Variable is a distributed, scheduler-hosted single-value slot — the
// mechanism the new deisa uses to exchange virtual-array descriptors and
// contracts ("two Dask variables, instead of Nbr_ranks distributed
// queues", §2.1).
type Variable struct {
	name   string
	client *Client
}

// Variable returns a handle on the named distributed variable.
func (cl *Client) Variable(name string) *Variable {
	return &Variable{name: name, client: cl}
}

// Set stores a value in the variable.
func (v *Variable) Set(value any) {
	v.client.roundTrip(v.client.cluster.cfg.ControlMsgBytes+SizeOf(value),
		func(arrival vtime.Time) vtime.Time {
			return v.client.cluster.sched.varSet(v.name, value, arrival)
		})
}

// Get blocks until the variable is set and returns its value.
func (v *Variable) Get() any {
	var out any
	v.client.roundTrip(v.client.cluster.cfg.ControlMsgBytes,
		func(arrival vtime.Time) vtime.Time {
			val, avail := v.client.cluster.sched.varGet(v.name, arrival)
			out = val
			return avail
		})
	return out
}

// Queue is a distributed, scheduler-hosted FIFO — the coordination
// mechanism of the DEISA1 baseline (one queue per MPI rank).
type Queue struct {
	name   string
	client *Client
}

// Queue returns a handle on the named distributed queue.
func (cl *Client) Queue(name string) *Queue {
	return &Queue{name: name, client: cl}
}

// Put appends a value to the queue.
func (q *Queue) Put(value any) {
	q.client.roundTrip(q.client.cluster.cfg.ControlMsgBytes+SizeOf(value),
		func(arrival vtime.Time) vtime.Time {
			return q.client.cluster.sched.queuePut(q.name, value, arrival)
		})
}

// Get blocks until the queue is non-empty and pops its head.
func (q *Queue) Get() any {
	var out any
	q.client.roundTrip(q.client.cluster.cfg.ControlMsgBytes,
		func(arrival vtime.Time) vtime.Time {
			val, avail := q.client.cluster.sched.queueGet(q.name, arrival)
			out = val
			return avail
		})
	return out
}

// String describes the future.
func (f *Future) String() string {
	st, ok := f.State()
	if !ok {
		return fmt.Sprintf("Future(%s, unknown)", f.Key)
	}
	return fmt.Sprintf("Future(%s, %s)", f.Key, st)
}
