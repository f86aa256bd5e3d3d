package chaos

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"deisago/internal/dask"
	"deisago/internal/netsim"
)

func TestPlanDSLRoundTrip(t *testing.T) {
	src := "kill:1@0/3;degrade:2-5:4@0.5-inf;drop:0/2:2;delay:1/4:0.25"
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 4 {
		t.Fatalf("parsed %d events, want 4", len(p.Events))
	}
	if got := p.String(); got != src {
		t.Fatalf("round trip:\n got %q\nwant %q", got, src)
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Events, p2.Events) {
		t.Fatalf("re-parse differs:\n%+v\n%+v", p.Events, p2.Events)
	}
	kill := p.Events[0]
	if kill.Kind != KindKillWorker || kill.Worker != 1 || kill.Rank != 0 || kill.Step != 3 {
		t.Fatalf("kill event = %+v", kill)
	}
	deg := p.Events[1]
	if deg.Kind != KindDegradeLink || deg.Factor != 4 || deg.Start != 0.5 || deg.End > 0 {
		t.Fatalf("degrade event = %+v", deg)
	}
	drop := p.Events[2]
	if drop.Kind != KindDropPublish || drop.Count != 2 {
		t.Fatalf("drop event = %+v", drop)
	}
	del := p.Events[3]
	if del.Kind != KindDelayPublish || del.Delay != 0.25 {
		t.Fatalf("delay event = %+v", del)
	}
}

func TestMemLimitDSLRoundTrip(t *testing.T) {
	src := "kill:1@0/3;memlimit:2:4096@0.25-1.5;memlimit:0:65536@0-inf"
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != src {
		t.Fatalf("round trip:\n got %q\nwant %q", got, src)
	}
	bounded := p.Events[1]
	if bounded.Kind != KindMemLimit || bounded.Worker != 2 || bounded.Limit != 4096 ||
		bounded.Start != 0.25 || bounded.End != 1.5 {
		t.Fatalf("bounded memlimit event = %+v", bounded)
	}
	open := p.Events[2]
	if open.Kind != KindMemLimit || open.Worker != 0 || open.Limit != 65536 || open.End > 0 {
		t.Fatalf("open-ended memlimit event = %+v", open)
	}
}

func TestParsePlanRejectsGarbage(t *testing.T) {
	for _, s := range []string{
		"", "nonsense", "kill:x@y/z", "drop:0/1:0", "degrade:1-2:0@0-1",
		"delay:0/1:-1", "kill:1",
		"memlimit:0", "memlimit:0:0@0-1", "memlimit:0:-5@0-1",
		"memlimit:x:64@0-1", "memlimit:0:64@x-1",
		"killjob:a", "killjob:@1", "killjob:a/b@1", "killjob:a@-1", "killjob:a@x",
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

// TestKillJobPlan: killjob events round-trip through the DSL, the
// controller folds repeats to each tenant's earliest step and logs every
// cancellation at construction, and an untriggered worker kill stays
// pending.
func TestKillJobPlan(t *testing.T) {
	src := "killjob:b@2;kill:1@0/3;killjob:a@1;killjob:b@0"
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != src {
		t.Fatalf("round trip:\n got %q\nwant %q", got, src)
	}
	fabric := netsim.New(netsim.Config{
		NodesPerSwitch: 8, LinkBandwidth: 1e9, PruneFactor: 2,
		HopLatency: 1e-6, SoftwareLatency: 1e-5,
	}, 4)
	dc := dask.NewCluster(fabric, dask.DefaultConfig(), 0, []netsim.NodeID{2, 3})
	defer dc.Close()
	ctrl, err := NewController(p, dc)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.plan != p {
		t.Fatal("controller lost its plan")
	}
	if got, want := ctrl.KillJobs(), map[string]int{"a": 1, "b": 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("KillJobs = %v, want %v", got, want)
	}
	if got := ctrl.PendingKills(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("PendingKills = %v, want [1]", got)
	}
	var lines []string
	for _, e := range ctrl.Log() {
		lines = append(lines, e.String())
	}
	want := []string{
		"killjob tenant b from step 2 (event 0)",
		"killjob tenant a from step 1 (event 2)",
		"killjob tenant b from step 0 (event 3)",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("log:\n%s\nwant:\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestRandomPlanMemLimitAppendsLast pins the determinism contract: a
// spec with memlimit draws yields a plan whose non-memlimit prefix is
// byte-identical to the same seed's plan without them, so governed and
// ungoverned scenarios share fault schedules.
func TestRandomPlanMemLimitAppendsLast(t *testing.T) {
	base := Spec{
		Workers: 4, Ranks: 4, Steps: 8,
		Nodes: []netsim.NodeID{0, 1, 2, 3},
		Kills: 2, Degrades: 1, Drops: 2, Delays: 1,
	}
	withMem := base
	withMem.MemLimits = 1
	withMem.MemBytes = 1 << 20

	a, err := NewRandomPlan(42, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomPlan(42, withMem)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Events) != len(a.Events)+1 {
		t.Fatalf("memlimit spec added %d events, want 1", len(b.Events)-len(a.Events))
	}
	if !reflect.DeepEqual(a.Events, b.Events[:len(a.Events)]) {
		t.Fatalf("memlimit draw perturbed the base plan:\n%s\n%s", a, b)
	}
	mem := b.Events[len(b.Events)-1]
	if mem.Kind != KindMemLimit || mem.Limit <= 0 || mem.Limit > int64(withMem.MemBytes) ||
		mem.Worker < 0 || mem.Worker >= base.Workers || mem.End <= mem.Start {
		t.Fatalf("memlimit event = %+v", mem)
	}
	if _, err := NewRandomPlan(42, Spec{Workers: 2, Ranks: 1, Steps: 2, MemLimits: 1}); err == nil {
		t.Fatal("memlimit draw without MemBytes accepted")
	}
}

func TestNewRandomPlanDeterministic(t *testing.T) {
	spec := Spec{
		Workers: 4, Ranks: 4, Steps: 8,
		Nodes: []netsim.NodeID{0, 1, 2, 3},
		Kills: 2, Degrades: 1, Drops: 2, Delays: 1,
	}
	a, err := NewRandomPlan(42, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRandomPlan(42, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed, different plans:\n%s\n%s", a, b)
	}
	c, err := NewRandomPlan(43, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced the same plan")
	}
	if got := len(a.Kills()); got != 2 {
		t.Fatalf("kills = %d, want 2", got)
	}
	seen := map[int]bool{}
	for _, w := range a.Kills() {
		if w < 0 || w >= spec.Workers {
			t.Fatalf("kill victim %d out of range", w)
		}
		if seen[w] {
			t.Fatalf("victim %d killed twice", w)
		}
		seen[w] = true
	}
}

func TestNewRandomPlanRejectsTotalKill(t *testing.T) {
	if _, err := NewRandomPlan(1, Spec{Workers: 2, Ranks: 1, Steps: 2, Kills: 2}); err == nil {
		t.Fatal("plan killing every worker accepted")
	}
}

// Kills returns the kill events' victim worker ids, in plan order.
func (p *Plan) Kills() []int {
	var out []int
	for _, e := range p.Events {
		if e.Kind == KindKillWorker {
			out = append(out, e.Worker)
		}
	}
	return out
}

// PendingKills returns the plan indices of kill events whose (rank,
// step) trigger never occurred — e.g. the rank published fewer steps
// than the plan assumed.
func (c *Controller) PendingKills() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, ev := range c.plan.Events {
		if ev.Kind == KindKillWorker && !c.killFired[i] {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
