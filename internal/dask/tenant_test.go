package dask

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"deisago/internal/metrics"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

func TestValidateTenant(t *testing.T) {
	cases := []struct {
		name   string
		weight float64
		ok     bool
	}{
		{"jobA", 1, true},
		{"j", 0.5, true},
		{"", 1, false},
		{"a/b", 1, false},
		{"default", 1, false}, // reserved: names the catch-all tenant
		{"jobA", 0, false},
		{"jobA", -2, false},
	}
	for _, c := range cases {
		if err := ValidateTenant(c.name, c.weight); (err == nil) != c.ok {
			t.Errorf("ValidateTenant(%q, %g) = %v, want ok=%v", c.name, c.weight, err, c.ok)
		}
	}
}

func TestRegisterTenantValidation(t *testing.T) {
	c, _ := testCluster(t, 1)
	for _, bad := range []struct {
		name   string
		weight float64
	}{
		{"", 1}, {"a/b", 1}, {"ok", 0}, {"ok", -3},
		{"default", 1}, // reserved: names the catch-all tenant
	} {
		if err := c.RegisterTenant(bad.name, bad.weight); err == nil {
			t.Errorf("RegisterTenant(%q, %g) accepted", bad.name, bad.weight)
		}
	}
	if err := c.RegisterTenant("jobA", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTenant("jobA", 1); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	var tenants []string
	for _, m := range c.Metrics().Snapshot().Counters {
		if name, ok := strings.CutPrefix(m.ID, "scheduler/tenant_pops{tenant="); ok {
			tenants = append(tenants, strings.TrimSuffix(name, "}"))
		}
	}
	if fmt.Sprint(tenants) != "[default jobA]" {
		t.Fatalf("tenant_pops series for %v, want [default jobA]", tenants)
	}
}

// TestTenantStatsNilWithoutTenants: a cluster with no named tenant
// exports no tenant statistics — no tenant_* or fairness_jain series.
func TestTenantStatsNilWithoutTenants(t *testing.T) {
	c, cl := testCluster(t, 1)
	g := taskgraph.New()
	constTask(g, "x", 1)
	futs, err := cl.Submit(g, []taskgraph.Key{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	// The default tenant's instruments stay unbound without a named
	// tenant, through the end-of-run flush too: no series, gauges
	// included.
	c.RecordUtilization(cl.Now())
	snap := c.Metrics().Snapshot()
	var ids []string
	for _, m := range snap.Counters {
		ids = append(ids, m.ID)
	}
	for _, m := range snap.Gauges {
		ids = append(ids, m.ID)
	}
	for _, m := range snap.Histograms {
		ids = append(ids, m.ID)
	}
	for _, id := range ids {
		if strings.Contains(id, "/tenant_") || strings.Contains(id, "fairness_jain") {
			t.Errorf("untenanted cluster exports %s", id)
		}
	}
}

func TestCrossTenantDependencyRejected(t *testing.T) {
	c, cl := testCluster(t, 1)
	for _, name := range []string{"a", "b"} {
		if err := c.RegisterTenant(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := taskgraph.New()
	constTask(g, "a/x", 1)
	sumTask(g, "b/y", "a/x")
	if _, err := cl.Submit(g, []taskgraph.Key{"b/y"}); err == nil ||
		!strings.Contains(err.Error(), "cross tenant") {
		t.Fatalf("cross-tenant edge err = %v, want namespace rejection", err)
	}
	// Unprefixed keys belong to the default tenant: depending on a named
	// tenant's key crosses the boundary too.
	g2 := taskgraph.New()
	constTask(g2, "a/x2", 1)
	sumTask(g2, "plain", "a/x2")
	if _, err := cl.Submit(g2, []taskgraph.Key{"plain"}); err == nil ||
		!strings.Contains(err.Error(), "cross tenant") {
		t.Fatalf("default-tenant edge err = %v, want namespace rejection", err)
	}
	// Same-tenant chains stay accepted.
	g3 := taskgraph.New()
	constTask(g3, "a/ok1", 1)
	sumTask(g3, "a/ok2", "a/ok1")
	futs, err := cl.Submit(g3, []taskgraph.Key{"a/ok2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
}

// runTenantContention submits one graph holding nPer equal tasks for
// each of two tenants (disjoint subgraphs) and returns how many of
// tenant a's tasks appear among the first nPer executed spans. All 2n
// tasks enter the ready queues in one submit operation, so the single
// drain pops the whole contended backlog: the pop interleaving — and
// the single worker's execution order — is the weighted fair-share
// policy's.
func runTenantContention(t *testing.T, wa, wb float64, nPer int) int {
	t.Helper()
	c, cl := testCluster(t, 1)
	c.EnableAudit() // exercise the tenant-isolation invariant while at it
	c.EnableTracing()
	if err := c.RegisterTenant("a", wa); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTenant("b", wb); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	var targets []taskgraph.Key
	for _, ten := range []string{"a", "b"} {
		for i := 0; i < nPer; i++ {
			key := taskgraph.Key(ten + "/t" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
			constTask(g, key, 1)
			targets = append(targets, key)
		}
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	aFirst := 0
	seen := 0
	for _, ev := range c.TraceEvents() {
		if strings.HasSuffix(string(ev.Key), "/gate") {
			continue
		}
		if seen++; seen > nPer {
			break
		}
		if strings.HasPrefix(string(ev.Key), "a/") {
			aFirst++
		}
	}
	return aFirst
}

func TestTenantFairShareEqualWeights(t *testing.T) {
	const n = 40
	aFirst := runTenantContention(t, 1, 1, n)
	// Equal weights: the first n executions should split near 50/50.
	if aFirst < n*4/10 || aFirst > n*6/10 {
		t.Fatalf("equal-weight contention served %d/%d of tenant a in the first window, want ~%d", aFirst, n, n/2)
	}
}

func TestTenantFairShareWeighted(t *testing.T) {
	const n = 40
	aFirst := runTenantContention(t, 4, 1, n)
	// Weight 4 vs 1: tenant a should take ~4/5 of the first window.
	if lo, hi := n*7/10, n*9/10; aFirst < lo || aFirst > hi {
		t.Fatalf("4:1 contention served %d/%d of tenant a in the first window, want in [%d,%d]", aFirst, n, lo, hi)
	}
}

// TestTenantNoStarvationProperty: under any weight ratio, both tenants
// appear in the first service window — a backlogged tenant is never
// starved, because idle catch-up bounds the virtual-service gap.
func TestTenantNoStarvationProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	cnt := 0
	prop := func(wRaw uint8) bool {
		cnt++
		// Weight ratio from 1:1 up to 16:1.
		w := 1 + float64(wRaw%16)
		const n = 24
		aFirst := runTenantContention(t, w, 1, n)
		// Tenant a holds the higher weight: it must get at least its
		// fair floor, and b (weight 1) must still be served.
		return aFirst >= n/2-2 && aFirst <= n-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestJainFairnessAfterContention(t *testing.T) {
	const n = 30
	c, _ := testCluster(t, 1)
	if err := c.RegisterTenant("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterTenant("b", 1); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("a/client", 1, math.Inf(1))
	cl2 := c.NewClient("b/client", 1, math.Inf(1))
	for ten, client := range map[string]*Client{"a": cl, "b": cl2} {
		g := taskgraph.New()
		targets := make([]taskgraph.Key, 0, n)
		for i := 0; i < n; i++ {
			key := taskgraph.Key(ten + "/t" + string(rune('0'+i/10)) + string(rune('0'+i%10)))
			constTask(g, key, 1)
			targets = append(targets, key)
		}
		futs, err := client.Submit(g, targets)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Wait(futs); err != nil {
			t.Fatal(err)
		}
	}
	c.RecordUtilization(0) // flush the throttled fairness gauges
	reg := c.Metrics()
	popsA := reg.Counter("scheduler", "tenant_pops", metrics.L("tenant", "a")).Load()
	popsB := reg.Counter("scheduler", "tenant_pops", metrics.L("tenant", "b")).Load()
	if popsA != n || popsB != n {
		t.Fatalf("pops = %d/%d, want %d each", popsA, popsB, n)
	}
	if j := reg.Gauge("scheduler", "fairness_jain").Value(); math.Abs(j-1) > 1e-9 {
		t.Fatalf("Jain = %g, want 1 for equal service", j)
	}
}

func TestJainKnownValues(t *testing.T) {
	jain := func(ts ...*tenantState) float64 {
		return (&scheduler{tenants: ts}).jainLocked()
	}
	if got := jain(); got != 1 {
		t.Errorf("no tenants = %g, want 1", got)
	}
	// Never-served tenants are excluded: one served tenant is fair.
	if got := jain(&tenantState{weight: 1}, &tenantState{pops: 10, weight: 1}); got != 1 {
		t.Errorf("single served tenant = %g, want 1", got)
	}
	// x = {1, 3}: (4)^2 / (2 * 10) = 0.8.
	if got := jain(&tenantState{pops: 1, weight: 1}, &tenantState{pops: 3, weight: 1}); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("{1,3} = %g, want 0.8", got)
	}
	// Service is weight-normalized: 3 pops at weight 3 is x = 1.
	if got := jain(&tenantState{pops: 1, weight: 1}, &tenantState{pops: 3, weight: 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("weight-proportional service = %g, want 1", got)
	}
}

// lastPickBreaker resolves every tie toward the last candidate and
// records the tenant-pick decisions it was offered.
type lastPickBreaker struct {
	mu    sync.Mutex
	picks []Decision
}

func (b *lastPickBreaker) Pick(d Decision) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d.Point == PointTenantPick {
		b.picks = append(b.picks, d)
	}
	return d.N - 1
}

func TestTenantTieBreakAndGaugeFlush(t *testing.T) {
	tb := &lastPickBreaker{}
	ncfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(ncfg, 3)
	dcfg := DefaultConfig()
	dcfg.TieBreak = tb
	c := NewCluster(fabric, dcfg, 0, []netsim.NodeID{2})
	defer c.Close()
	c.EnableAudit()
	cl := c.NewClient("client", 1, math.Inf(1))

	c.RecordUtilization(0) // flushes no tenant gauge before a named tenant exists
	for _, name := range []string{"a", "b"} {
		if err := c.RegisterTenant(name, 1); err != nil {
			t.Fatal(err)
		}
	}
	const n = 10
	g := taskgraph.New()
	var targets []taskgraph.Key
	for _, ten := range []string{"a", "b"} {
		for i := 0; i < n; i++ {
			key := taskgraph.Key(fmt.Sprintf("%s/t%02d", ten, i))
			constTask(g, key, 1)
			targets = append(targets, key)
		}
	}
	futs, err := cl.Submit(g, targets)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Wait(futs); err != nil {
		t.Fatal(err)
	}
	tb.mu.Lock()
	picks := len(tb.picks)
	tb.mu.Unlock()
	// Equal weights and a shared backlog: the two tenants repeatedly tie
	// at the minimal virtual service, and every tie must route through
	// the breaker with both candidates on offer.
	if picks == 0 {
		t.Fatal("tie-breaker saw no tenant-pick decisions under contention")
	}
	c.RecordUtilization(cl.Now())
	shareA := c.Metrics().Gauge("scheduler", "tenant_share", metrics.L("tenant", "a")).Value()
	shareB := c.Metrics().Gauge("scheduler", "tenant_share", metrics.L("tenant", "b")).Value()
	if math.Abs(shareA-0.5) > 0.2 || math.Abs(shareA+shareB-1) > 1e-9 {
		t.Fatalf("flushed shares = %g/%g, want ~0.5 each summing to 1", shareA, shareB)
	}
	if j := c.Metrics().Gauge("scheduler", "fairness_jain").Value(); j <= 0 || j > 1 {
		t.Fatalf("flushed Jain gauge = %g, want (0, 1]", j)
	}
}
