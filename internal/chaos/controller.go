package chaos

import (
	"fmt"
	"sort"
	"sync"

	"deisago/internal/core"
	"deisago/internal/dask"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// LogEntry is one executed fault, in purely logical coordinates — no
// virtual or wall times — so the log of a seeded run is bit-identical
// across repetitions regardless of goroutine interleaving.
type LogEntry struct {
	Event   int    // index into Plan.Events
	Kind    string // Kind.String() of the event
	Worker  int    // kill: victim (-1 otherwise)
	Rank    int    // triggering rank
	Step    int    // triggering step
	Attempt int    // drop: which publish attempt was lost
	Key     string // drop/delay: block key affected ("" for kills)
}

// String formats one log entry.
func (e LogEntry) String() string {
	switch e.Kind {
	case "kill":
		return fmt.Sprintf("kill worker %d (event %d, rank %d step %d)", e.Worker, e.Event, e.Rank, e.Step)
	case "drop":
		return fmt.Sprintf("drop %s attempt %d (event %d, rank %d step %d)", e.Key, e.Attempt, e.Event, e.Rank, e.Step)
	case "delay":
		return fmt.Sprintf("delay %s (event %d, rank %d step %d)", e.Key, e.Event, e.Rank, e.Step)
	case "memlimit":
		return fmt.Sprintf("memlimit worker %d (event %d)", e.Worker, e.Event)
	case "killjob":
		return fmt.Sprintf("killjob tenant %s from step %d (event %d)", e.Key, e.Step, e.Event)
	}
	return fmt.Sprintf("%s (event %d)", e.Kind, e.Event)
}

type logKey struct {
	event   int
	key     string
	attempt int
}

// Controller executes a plan against one cluster. It implements
// core.PublishInterceptor: kills, drops, and delays all trigger at
// bridge publish points, the only logical clock ranks and the cluster
// share. Install it on every bridge of the scenario.
type Controller struct {
	plan    *Plan
	cluster *dask.Cluster

	mu        sync.Mutex
	killFired map[int]bool // event index -> kill executed
	killErrs  []error
	log       map[logKey]LogEntry
}

// NewController validates the plan against the cluster and returns a
// controller. Kill victims must be distinct, in range, and leave at
// least one surviving worker.
func NewController(plan *Plan, cluster *dask.Cluster) (*Controller, error) {
	if plan == nil || len(plan.Events) == 0 {
		return nil, fmt.Errorf("chaos: empty plan")
	}
	n := cluster.NumWorkers()
	seen := map[int]bool{}
	for i, ev := range plan.Events {
		switch ev.Kind {
		case KindKillWorker:
			if ev.Worker < 0 || ev.Worker >= n {
				return nil, fmt.Errorf("chaos: event %d kills worker %d, cluster has %d", i, ev.Worker, n)
			}
			if seen[ev.Worker] {
				return nil, fmt.Errorf("chaos: worker %d killed twice", ev.Worker)
			}
			seen[ev.Worker] = true
		case KindMemLimit:
			if ev.Worker < 0 || ev.Worker >= n {
				return nil, fmt.Errorf("chaos: event %d squeezes worker %d, cluster has %d", i, ev.Worker, n)
			}
			if ev.Limit <= 0 {
				return nil, fmt.Errorf("chaos: event %d memlimit must be positive, got %d", i, ev.Limit)
			}
		case KindKillJob:
			if ev.Tenant == "" {
				return nil, fmt.Errorf("chaos: event %d killjob needs a tenant", i)
			}
			if ev.Step < 0 {
				return nil, fmt.Errorf("chaos: event %d killjob step %d negative", i, ev.Step)
			}
		}
	}
	if len(seen) >= n {
		return nil, fmt.Errorf("chaos: plan kills all %d workers", n)
	}
	ctrl := &Controller{
		plan:      plan,
		cluster:   cluster,
		killFired: map[int]bool{},
		log:       map[logKey]LogEntry{},
	}
	// Memlimit windows are keyed on virtual time, not publish
	// coordinates, so they install (and log) at construction — the log
	// entry is deterministic regardless of run interleaving. Job kills
	// likewise: the multi-job driver reads them off KillJobs before the
	// jobs start, so the cancellation is a property of the plan, not of
	// run timing, and the entry can be logged here.
	ctrl.mu.Lock()
	for i, ev := range plan.Events {
		switch ev.Kind {
		case KindMemLimit:
			cluster.SetWorkerMemoryWindow(ev.Worker, ev.Limit, ev.Start, ev.End)
			ctrl.record(LogEntry{Event: i, Kind: "memlimit", Worker: ev.Worker, Rank: -1, Step: -1})
		case KindKillJob:
			ctrl.record(LogEntry{Event: i, Kind: "killjob", Worker: -1, Rank: -1,
				Step: ev.Step, Key: ev.Tenant})
		}
	}
	ctrl.mu.Unlock()
	return ctrl, nil
}

// OnPublish implements core.PublishInterceptor: it fires pending kill
// events whose (rank, step) trigger matches, then returns the drop/delay
// verdict for this attempt. Decisions depend only on the logical
// coordinates; `now` is used solely to timestamp the kill in virtual
// time.
func (c *Controller) OnPublish(rank, step, attempt int, key taskgraph.Key, now vtime.Time) core.PublishFault {
	c.mu.Lock()
	defer c.mu.Unlock()
	var fault core.PublishFault
	for i, ev := range c.plan.Events {
		switch ev.Kind {
		case KindKillWorker:
			if ev.Rank != rank || ev.Step != step || c.killFired[i] {
				continue
			}
			c.killFired[i] = true
			if err := c.cluster.KillWorker(ev.Worker, now); err != nil {
				c.killErrs = append(c.killErrs, fmt.Errorf("chaos: event %d: %w", i, err))
				continue
			}
			c.record(LogEntry{Event: i, Kind: "kill", Worker: ev.Worker, Rank: rank, Step: step})
		case KindDropPublish:
			if ev.Rank != rank || ev.Step != step || attempt >= ev.Count {
				continue
			}
			fault.Drop = true
			c.record(LogEntry{Event: i, Kind: "drop", Worker: -1, Rank: rank, Step: step,
				Attempt: attempt, Key: string(key)})
		case KindDelayPublish:
			if ev.Rank != rank || ev.Step != step || attempt != 0 {
				continue
			}
			fault.Delay += ev.Delay
			c.record(LogEntry{Event: i, Kind: "delay", Worker: -1, Rank: rank, Step: step,
				Key: string(key)})
		}
	}
	return fault
}

// record must be called with c.mu held.
func (c *Controller) record(e LogEntry) {
	c.log[logKey{event: e.Event, key: e.Key, attempt: e.Attempt}] = e
}

// KillJobs returns the plan's job cancellations as tenant -> earliest
// cancellation step. The multi-job driver consults it before launching
// jobs: a cancelled tenant's analytics select only timesteps before the
// step, so its bridges filter the rest and the job winds down cleanly.
func (c *Controller) KillJobs() map[string]int {
	out := map[string]int{}
	for _, ev := range c.plan.Events {
		if ev.Kind != KindKillJob {
			continue
		}
		if cur, ok := out[ev.Tenant]; !ok || ev.Step < cur {
			out[ev.Tenant] = ev.Step
		}
	}
	return out
}

// InstallLinkFaults sets the fabric's fault hook to the plan's degrade
// events, folded into one hook: overlapping windows on a link multiply
// their factors. Degradation applies in both directions of the named
// link pair within the virtual window. Call it before traffic starts.
func (c *Controller) InstallLinkFaults(f *netsim.Fabric) {
	events := make([]Event, 0)
	for _, ev := range c.plan.Events {
		if ev.Kind == KindDegradeLink {
			events = append(events, ev)
		}
	}
	if len(events) == 0 {
		return
	}
	f.SetFaultHook(func(from, to netsim.NodeID, size int64, depart vtime.Time) netsim.FaultVerdict {
		v := netsim.FaultVerdict{SlowFactor: 1}
		for _, ev := range events {
			match := (from == ev.From && to == ev.To) || (from == ev.To && to == ev.From)
			if !match || depart < ev.Start || (ev.End > 0 && depart >= ev.End) {
				continue
			}
			v.SlowFactor *= ev.Factor
		}
		return v
	})
}

// KillErrs returns errors from kill events that could not execute
// (victim already dead, last survivor). A correct plan produces none.
func (c *Controller) KillErrs() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]error(nil), c.killErrs...)
}

// Log returns the executed-fault log, deduplicated and sorted by (plan
// event, key, attempt). Because entries hold only logical coordinates,
// two runs with the same seed and scenario return identical logs.
func (c *Controller) Log() []LogEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LogEntry, 0, len(c.log))
	for _, e := range c.log {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Attempt < b.Attempt
	})
	return out
}
