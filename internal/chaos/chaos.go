// Package chaos provides deterministic fault injection for the in
// transit coupling: seeded fault plans (worker kills, link degradation,
// dropped or delayed bridge publishes) that compose with any harness
// scenario, and a controller that executes a plan and records a
// reproducible event log.
//
// Determinism is the design center. Faults trigger on logical
// coordinates — a kill fires when a given rank publishes a given step,
// a drop hits the first N attempts of a given (rank, step) — never on
// wall or virtual time races, so the same seed produces the same event
// log on every run regardless of goroutine interleaving. Link
// degradation is keyed on virtual-time windows, which perturbs timing
// but not results: the analytics are pure functions of the published
// data.
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"deisago/internal/netsim"
	"deisago/internal/vtime"
)

// Kind discriminates fault events.
type Kind int

// Fault kinds.
const (
	// KindKillWorker kills worker Worker when rank Rank first publishes
	// a block of step Step.
	KindKillWorker Kind = iota
	// KindDegradeLink multiplies the service time of transfers between
	// nodes From and To (either direction) by Factor inside the virtual
	// window [Start, End); End <= 0 means open-ended.
	KindDegradeLink
	// KindDropPublish loses the first Count publish attempts of every
	// block rank Rank publishes at step Step.
	KindDropPublish
	// KindDelayPublish stalls rank Rank for Delay virtual seconds before
	// the first attempt of every block it publishes at step Step.
	KindDelayPublish
	// KindMemLimit squeezes worker Worker's memory limit to Limit bytes
	// inside the virtual window [Start, End); End <= 0 means open-ended.
	// The worker spills to fit and refuses scatters it cannot hold, which
	// the bridges absorb via retry/backoff.
	KindMemLimit
	// KindKillJob cancels tenant Tenant's pipeline from timestep Step
	// on (multi-job runs): the job's analytics truncate their selection
	// to steps before Step, its bridges filter everything else, and the
	// surviving tenants' results must be bit-identical to a run where
	// the killed tenant never existed. Step 0 cancels before any data
	// flows.
	KindKillJob
)

// Event is one planned fault. Which fields matter depends on Kind.
type Event struct {
	Kind Kind

	Worker int // kill: victim worker id

	Rank int // kill/drop/delay: triggering rank
	Step int // kill/drop/delay: triggering timestep

	Count int       // drop: number of leading attempts lost
	Delay vtime.Dur // delay: virtual stall per publish

	From, To netsim.NodeID // degrade: link endpoints
	Factor   float64       // degrade: service-time multiplier (>1 slower)
	Start    vtime.Time    // degrade/memlimit: window start (virtual seconds)
	End      vtime.Time    // degrade/memlimit: window end; <= 0 means open-ended

	Limit int64 // memlimit: squeezed per-worker limit in bytes

	Tenant string // killjob: cancelled tenant name
}

// String renders the event in the plan DSL.
func (e Event) String() string {
	switch e.Kind {
	case KindKillWorker:
		return fmt.Sprintf("kill:%d@%d/%d", e.Worker, e.Rank, e.Step)
	case KindDegradeLink:
		end := "inf"
		if e.End > 0 {
			end = trimFloat(float64(e.End))
		}
		return fmt.Sprintf("degrade:%d-%d:%s@%s-%s",
			e.From, e.To, trimFloat(e.Factor), trimFloat(float64(e.Start)), end)
	case KindDropPublish:
		return fmt.Sprintf("drop:%d/%d:%d", e.Rank, e.Step, e.Count)
	case KindDelayPublish:
		return fmt.Sprintf("delay:%d/%d:%s", e.Rank, e.Step, trimFloat(float64(e.Delay)))
	case KindMemLimit:
		end := "inf"
		if e.End > 0 {
			end = trimFloat(float64(e.End))
		}
		return fmt.Sprintf("memlimit:%d:%d@%s-%s",
			e.Worker, e.Limit, trimFloat(float64(e.Start)), end)
	case KindKillJob:
		return fmt.Sprintf("killjob:%s@%d", e.Tenant, e.Step)
	}
	return fmt.Sprintf("?%d", int(e.Kind))
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Plan is an ordered list of fault events plus the seed that generated
// it (0 for hand-written plans).
type Plan struct {
	Seed   int64
	Events []Event
}

// String renders the plan in the DSL accepted by ParsePlan:
// semicolon-separated events, e.g.
// "kill:1@0/3;degrade:2-5:4@0.5-inf;drop:0/2:2;delay:1/4:0.25".
func (p *Plan) String() string {
	parts := make([]string, len(p.Events))
	for i, e := range p.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses the plan DSL. Grammar (semicolon-separated):
//
//	kill:W@R/S        kill worker W when rank R publishes step S
//	degrade:A-B:F@T1-T2   slow link A<->B by factor F in [T1,T2); T2 may be "inf"
//	drop:R/S:N        drop the first N publish attempts of rank R at step S
//	delay:R/S:D       stall rank R for D virtual seconds at step S
//	memlimit:W:B@T1-T2    squeeze worker W's memory limit to B bytes in [T1,T2); T2 may be "inf"
//	killjob:TENANT@S  cancel tenant TENANT's pipeline from timestep S on
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: event %q: missing ':'", part)
		}
		var ev Event
		var err error
		switch kind {
		case "kill":
			ev, err = parseKill(rest)
		case "degrade":
			ev, err = parseDegrade(rest)
		case "drop":
			ev, err = parseDrop(rest)
		case "delay":
			ev, err = parseDelay(rest)
		case "memlimit":
			ev, err = parseMemLimit(rest)
		case "killjob":
			ev, err = parseKillJob(rest)
		default:
			err = fmt.Errorf("unknown kind %q", kind)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: event %q: %w", part, err)
		}
		p.Events = append(p.Events, ev)
	}
	if len(p.Events) == 0 {
		return nil, fmt.Errorf("chaos: empty plan %q", s)
	}
	return p, nil
}

func parseKill(s string) (Event, error) {
	var w, r, step int
	if _, err := fmt.Sscanf(s, "%d@%d/%d", &w, &r, &step); err != nil {
		return Event{}, fmt.Errorf("want W@R/S: %w", err)
	}
	return Event{Kind: KindKillWorker, Worker: w, Rank: r, Step: step}, nil
}

func parseDegrade(s string) (Event, error) {
	link, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("want A-B:F@T1-T2")
	}
	var a, b int
	if _, err := fmt.Sscanf(link, "%d-%d", &a, &b); err != nil {
		return Event{}, fmt.Errorf("link %q: %w", link, err)
	}
	factorStr, window, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, fmt.Errorf("want F@T1-T2")
	}
	factor, err := strconv.ParseFloat(factorStr, 64)
	if err != nil || factor <= 0 {
		return Event{}, fmt.Errorf("bad factor %q", factorStr)
	}
	t1s, t2s, ok := strings.Cut(window, "-")
	if !ok {
		return Event{}, fmt.Errorf("window %q: want T1-T2", window)
	}
	t1, err := strconv.ParseFloat(t1s, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad window start %q", t1s)
	}
	t2 := -1.0
	if t2s != "inf" {
		t2, err = strconv.ParseFloat(t2s, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad window end %q", t2s)
		}
	}
	return Event{
		Kind: KindDegradeLink,
		From: netsim.NodeID(a), To: netsim.NodeID(b),
		Factor: factor, Start: vtime.Time(t1), End: vtime.Time(t2),
	}, nil
}

func parseDrop(s string) (Event, error) {
	var r, step, n int
	if _, err := fmt.Sscanf(s, "%d/%d:%d", &r, &step, &n); err != nil {
		return Event{}, fmt.Errorf("want R/S:N: %w", err)
	}
	if n <= 0 {
		return Event{}, fmt.Errorf("drop count %d must be positive", n)
	}
	return Event{Kind: KindDropPublish, Rank: r, Step: step, Count: n}, nil
}

func parseDelay(s string) (Event, error) {
	coord, ds, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("want R/S:D")
	}
	var r, step int
	if _, err := fmt.Sscanf(coord, "%d/%d", &r, &step); err != nil {
		return Event{}, fmt.Errorf("want R/S: %w", err)
	}
	d, err := strconv.ParseFloat(ds, 64)
	if err != nil || d < 0 {
		return Event{}, fmt.Errorf("bad delay %q", ds)
	}
	return Event{Kind: KindDelayPublish, Rank: r, Step: step, Delay: vtime.Dur(d)}, nil
}

func parseMemLimit(s string) (Event, error) {
	ws, rest, ok := strings.Cut(s, ":")
	if !ok {
		return Event{}, fmt.Errorf("want W:B@T1-T2")
	}
	w, err := strconv.Atoi(ws)
	if err != nil {
		return Event{}, fmt.Errorf("bad worker %q", ws)
	}
	bs, window, ok := strings.Cut(rest, "@")
	if !ok {
		return Event{}, fmt.Errorf("want B@T1-T2")
	}
	limit, err := strconv.ParseInt(bs, 10, 64)
	if err != nil || limit <= 0 {
		return Event{}, fmt.Errorf("bad limit %q", bs)
	}
	t1s, t2s, ok := strings.Cut(window, "-")
	if !ok {
		return Event{}, fmt.Errorf("window %q: want T1-T2", window)
	}
	t1, err := strconv.ParseFloat(t1s, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad window start %q", t1s)
	}
	t2 := -1.0
	if t2s != "inf" {
		t2, err = strconv.ParseFloat(t2s, 64)
		if err != nil {
			return Event{}, fmt.Errorf("bad window end %q", t2s)
		}
	}
	return Event{
		Kind: KindMemLimit, Worker: w, Limit: limit,
		Start: vtime.Time(t1), End: vtime.Time(t2),
	}, nil
}

func parseKillJob(s string) (Event, error) {
	tenant, ss, ok := strings.Cut(s, "@")
	if !ok {
		return Event{}, fmt.Errorf("want TENANT@S")
	}
	if tenant == "" || strings.ContainsRune(tenant, '/') {
		return Event{}, fmt.Errorf("bad tenant %q (non-empty, no '/')", tenant)
	}
	step, err := strconv.Atoi(ss)
	if err != nil || step < 0 {
		return Event{}, fmt.Errorf("bad step %q", ss)
	}
	return Event{Kind: KindKillJob, Tenant: tenant, Step: step}, nil
}

// Spec bounds random plan generation: the scenario's shape plus how many
// faults of each kind to draw.
type Spec struct {
	Workers int // cluster worker count
	Ranks   int // simulation MPI ranks
	Steps   int // simulation timesteps
	// Nodes are the fabric nodes eligible as degraded-link endpoints
	// (typically worker + bridge nodes).
	Nodes []netsim.NodeID

	Kills    int // worker kills; must leave at least one survivor
	Degrades int
	Drops    int
	Delays   int

	// MemLimits is how many memlimit squeeze windows to draw; MemBytes
	// is the scenario's block size, which scales the squeezed limits
	// (each drawn limit sits in [MemBytes/4, MemBytes], forcing spills
	// without wedging single-block scatters forever — windows are always
	// time-bounded). MemBytes must be positive when MemLimits > 0.
	MemLimits int
	MemBytes  int64
}

// NewRandomPlan draws a fault plan from the seed. Kill victims are
// distinct and at most Workers-1, so every kill in the plan is
// executable; kill/drop/delay trigger steps avoid step 0 when possible
// so the contract handshake completes before faults start.
func NewRandomPlan(seed int64, spec Spec) (*Plan, error) {
	if spec.Workers < 1 || spec.Ranks < 1 || spec.Steps < 1 {
		return nil, fmt.Errorf("chaos: spec needs workers/ranks/steps >= 1, got %d/%d/%d",
			spec.Workers, spec.Ranks, spec.Steps)
	}
	if spec.Kills > spec.Workers-1 {
		return nil, fmt.Errorf("chaos: %d kills would leave no survivor of %d workers",
			spec.Kills, spec.Workers)
	}
	if spec.Degrades > 0 && len(spec.Nodes) < 2 {
		return nil, fmt.Errorf("chaos: degrades need at least 2 nodes")
	}
	if spec.MemLimits > 0 && spec.MemBytes <= 0 {
		return nil, fmt.Errorf("chaos: memlimit draws need MemBytes > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed}
	step := func() int {
		if spec.Steps == 1 {
			return 0
		}
		return 1 + rng.Intn(spec.Steps-1)
	}
	victims := rng.Perm(spec.Workers)[:spec.Kills]
	for _, w := range victims {
		p.Events = append(p.Events, Event{
			Kind: KindKillWorker, Worker: w, Rank: rng.Intn(spec.Ranks), Step: step(),
		})
	}
	for i := 0; i < spec.Degrades; i++ {
		ai := rng.Intn(len(spec.Nodes))
		bi := rng.Intn(len(spec.Nodes) - 1)
		if bi >= ai {
			bi++
		}
		start := vtime.Time(rng.Float64())
		p.Events = append(p.Events, Event{
			Kind: KindDegradeLink,
			From: spec.Nodes[ai], To: spec.Nodes[bi],
			Factor: 2 + 6*rng.Float64(),
			Start:  start, End: -1,
		})
	}
	for i := 0; i < spec.Drops; i++ {
		p.Events = append(p.Events, Event{
			Kind: KindDropPublish, Rank: rng.Intn(spec.Ranks), Step: step(),
			Count: 1 + rng.Intn(2),
		})
	}
	for i := 0; i < spec.Delays; i++ {
		p.Events = append(p.Events, Event{
			Kind: KindDelayPublish, Rank: rng.Intn(spec.Ranks), Step: step(),
			Delay: vtime.Dur(0.05 + 0.2*rng.Float64()),
		})
	}
	// Memlimit draws come last so plans from pre-memlimit seeds are
	// byte-identical when MemLimits is zero (the fixed-seed chaos
	// acceptance gate depends on this).
	for i := 0; i < spec.MemLimits; i++ {
		lo := spec.MemBytes / 4
		if lo < 1 {
			lo = 1
		}
		limit := lo + rng.Int63n(spec.MemBytes-lo+1)
		start := vtime.Time(rng.Float64())
		p.Events = append(p.Events, Event{
			Kind: KindMemLimit, Worker: rng.Intn(spec.Workers),
			Limit: limit, Start: start,
			End: start + vtime.Time(0.5+rng.Float64()),
		})
	}
	return p, nil
}
