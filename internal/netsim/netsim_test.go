package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"deisago/internal/metrics"
)

func testConfig() Config {
	return Config{
		NodesPerSwitch:  4,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 10e-6,
	}
}

func TestTopology(t *testing.T) {
	f := New(testConfig(), 10)
	if f.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d", f.NumNodes())
	}
	// 10 nodes, 4 per switch -> leaves 0..2.
	wantLeaf := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i, w := range wantLeaf {
		if got := f.Leaf(NodeID(i)); got != w {
			t.Fatalf("Leaf(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestHops(t *testing.T) {
	f := New(testConfig(), 10)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0},
		{0, 3, 2}, // same leaf
		{0, 4, 4}, // across spine
		{8, 9, 2},
	}
	for _, c := range cases {
		if got := f.Hops(c.a, c.b); got != c.want {
			t.Fatalf("Hops(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := f.Hops(c.b, c.a); got != c.want {
			t.Fatalf("Hops not symmetric for (%d,%d)", c.a, c.b)
		}
	}
}

func TestLocalTransfer(t *testing.T) {
	f := New(testConfig(), 4)
	got := f.Transfer(1, 1, 1<<30, 5)
	want := 5 + testConfig().SoftwareLatency
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("local transfer arrive = %v, want %v", got, want)
	}
}

func TestUnloadedSameLeafTransfer(t *testing.T) {
	cfg := testConfig()
	f := New(cfg, 4)
	size := int64(1e6)
	got := f.Transfer(0, 1, size, 0)
	want := cfg.SoftwareLatency + float64(size)/cfg.LinkBandwidth + 2*cfg.HopLatency
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("arrive = %v, want %v", got, want)
	}
	if d := f.TransferDuration(0, 1, size); math.Abs(d-want) > 1e-9 {
		t.Fatalf("TransferDuration = %v, want %v", d, want)
	}
}

func TestCrossSpineSlowerWhenPruned(t *testing.T) {
	cfg := testConfig()
	cfg.PruneFactor = 8 // uplink bw = 4*1e9/8 = 0.5e9 < link bw
	f := New(cfg, 8)
	size := int64(1e8)
	local := f.TransferDuration(0, 1, size)
	remote := f.TransferDuration(0, 5, size)
	if remote <= local {
		t.Fatalf("cross-spine (%v) should exceed same-leaf (%v) on a heavily pruned tree", remote, local)
	}
}

func TestContentionQueueing(t *testing.T) {
	cfg := testConfig()
	f := New(cfg, 4)
	size := int64(1e8) // 0.1 s at 1 GB/s
	// Two flows into the same ingress NIC at node 1, both depart at 0.
	a1 := f.Transfer(0, 1, size, 0)
	a2 := f.Transfer(2, 1, size, 0)
	// Second flow must queue behind the first at node 1's ingress.
	if a2 < a1+0.09 {
		t.Fatalf("no queueing: first=%v second=%v", a1, a2)
	}
}

// fabricTotals reads the fabric totals from the registry attached with
// UseMetrics: transfers and bytes over both scopes, and drops.
func fabricTotals(reg *metrics.Registry) (n, bytes, dropped int64) {
	s := reg.Snapshot()
	return s.SumCounters("fabric/transfers{"), s.SumCounters("fabric/bytes{"), s.Counter("fabric/dropped")
}

func TestTransferCounters(t *testing.T) {
	f := New(testConfig(), 4)
	reg := metrics.NewRegistry()
	f.UseMetrics(reg)
	f.Transfer(0, 1, 100, 0)
	f.Transfer(1, 2, 200, 0)
	f.Transfer(3, 3, 50, 0)
	if n, b, _ := fabricTotals(reg); n != 3 || b != 350 {
		t.Fatalf("counters = (%d,%d), want (3,350)", n, b)
	}
	if b := reg.Counter("fabric", "bytes", metrics.L("scope", "local")).Load(); b != 50 {
		t.Fatalf("local bytes = %d, want 50", b)
	}
}

func TestResetReproducible(t *testing.T) {
	cfg := testConfig()
	cfg.JitterFrac = 0.3
	cfg.Seed = 42
	f := New(cfg, 8)
	var first []float64
	for i := 0; i < 5; i++ {
		first = append(first, f.Transfer(0, 5, 1e7, 0))
	}
	f.Reset()
	for i := 0; i < 5; i++ {
		if got := f.Transfer(0, 5, 1e7, 0); got != first[i] {
			t.Fatalf("run not reproducible after Reset: transfer %d = %v, want %v", i, got, first[i])
		}
	}
}

// TestJitterOrderIndependent pins the property the parallel harness and
// the lock-free transfer path rely on: a transfer's jitter is a pure
// function of (seed, endpoints, size, depart), not of the real-time order
// in which goroutines happen to issue transfers. The seed implementation
// (one shared rand stream) fails this.
func TestJitterOrderIndependent(t *testing.T) {
	cfg := testConfig()
	cfg.JitterFrac = 0.2
	cfg.Seed = 5
	// Same two transfers on disjoint node pairs (no queueing interaction),
	// issued in both orders on fresh fabrics.
	f1 := New(cfg, 8)
	a1 := f1.Transfer(0, 1, 1e6, 0)
	b1 := f1.Transfer(2, 3, 2e6, 0)
	f2 := New(cfg, 8)
	b2 := f2.Transfer(2, 3, 2e6, 0)
	a2 := f2.Transfer(0, 1, 1e6, 0)
	if a1 != a2 || b1 != b2 {
		t.Fatalf("jitter depends on issue order: (%v,%v) vs (%v,%v)", a1, b1, a2, b2)
	}
}

func TestJitterBounded(t *testing.T) {
	cfg := testConfig()
	cfg.JitterFrac = 0.2
	cfg.Seed = 7
	f := New(cfg, 4)
	size := int64(1e8)
	base := float64(size) / cfg.LinkBandwidth
	for i := 0; i < 100; i++ {
		f.Reset()
		arr := f.Transfer(0, 1, size, 0)
		d := arr - cfg.SoftwareLatency - 2*cfg.HopLatency
		if d < base*0.79 || d > base*1.21 {
			t.Fatalf("jittered duration %v outside ±20%% of %v", d, base)
		}
	}
}

// Property: arrival time is always strictly after departure, monotone in
// size, and hop counts are in {0,2,4}.
func TestTransferQuick(t *testing.T) {
	cfg := testConfig()
	f := New(cfg, 12)
	q := func(a, b uint8, sz uint32, depart float64) bool {
		from := NodeID(int(a) % 12)
		to := NodeID(int(b) % 12)
		d := math.Abs(depart)
		if math.IsNaN(d) || math.IsInf(d, 0) || d > 1e9 {
			d = math.Mod(d, 1e9)
		}
		if math.IsNaN(d) {
			d = 0
		}
		f.Reset()
		arr := f.Transfer(from, to, int64(sz), d)
		if arr <= d {
			return false
		}
		h := f.Hops(from, to)
		return h == 0 || h == 2 || h == 4
	}
	if err := quick.Check(q, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	// n senders to n distinct receivers across the spine share the pruned
	// uplink: total completion approx n*size/uplinkBW, not size/linkBW.
	cfg := testConfig()
	cfg.PruneFactor = 4
	f := New(cfg, 8)
	size := int64(4e8)
	var last float64
	for i := 0; i < 4; i++ {
		arr := f.Transfer(NodeID(i), NodeID(4+i), size, 0)
		if arr > last {
			last = arr
		}
	}
	upBW := cfg.LinkBandwidth * float64(cfg.NodesPerSwitch) / cfg.PruneFactor
	want := 4 * float64(size) / upBW
	if last < want*0.9 {
		t.Fatalf("uplink sharing not enforced: makespan %v, want >= %v", last, want*0.9)
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.LinkBandwidth != 12.5e9 {
		t.Fatalf("default link bandwidth = %v, want 100 Gb/s", cfg.LinkBandwidth)
	}
	f := New(cfg, 64)
	if f.NumNodes() != 64 {
		t.Fatal("node count")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	f := New(testConfig(), 2)
	for name, fn := range map[string]func(){
		"negative size": func() { f.Transfer(0, 1, -1, 0) },
		"bad node":      func() { f.Hops(0, 99) },
		"zero nodes":    func() { New(testConfig(), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFaultHookDegradesLink(t *testing.T) {
	cfg := testConfig()
	size := int64(1 << 20)
	base := New(cfg, 10).Transfer(0, 1, size, 0)

	f := New(cfg, 10)
	f.AddFaultHook(func(from, to NodeID, _ int64, _ float64) FaultVerdict {
		if (from == 0 && to == 1) || (from == 1 && to == 0) {
			return FaultVerdict{SlowFactor: 4}
		}
		return FaultVerdict{}
	})
	slow := f.Transfer(0, 1, size, 0)
	if slow <= base {
		t.Fatalf("degraded transfer %v not slower than baseline %v", slow, base)
	}
	// Roughly 4x the serialization part: at least 2x end to end.
	if slow < 2*base-cfg.SoftwareLatency {
		t.Fatalf("degraded transfer %v too fast vs baseline %v", slow, base)
	}
	// Untouched pair is unaffected.
	other := f.Transfer(2, 3, size, 0)
	if math.Abs(other-base) > 1e-12 {
		t.Fatalf("unaffected link changed: %v vs %v", other, base)
	}
}

func TestFaultHookWindowAndLatency(t *testing.T) {
	cfg := testConfig()
	f := New(cfg, 4)
	f.AddFaultHook(func(_, _ NodeID, _ int64, depart float64) FaultVerdict {
		if depart >= 1 && depart < 2 {
			return FaultVerdict{ExtraLatency: 0.5}
		}
		return FaultVerdict{}
	})
	before := f.Transfer(0, 1, 0, 0.5)
	inside := f.Transfer(0, 1, 0, 1.5)
	if got := inside - 1.5; math.Abs(got-(before-0.5)-0.5) > 1e-9 {
		t.Fatalf("windowed latency: inside cost %v, outside cost %v", inside-1.5, before-0.5)
	}
	after := f.Transfer(0, 1, 0, 2.5)
	if math.Abs((after-2.5)-(before-0.5)) > 1e-12 {
		t.Fatalf("fault leaked outside window: %v vs %v", after-2.5, before-0.5)
	}
}

func TestFaultHookDrops(t *testing.T) {
	f := New(testConfig(), 4)
	reg := metrics.NewRegistry()
	f.UseMetrics(reg)
	drops := 0
	f.AddFaultHook(func(from, to NodeID, _ int64, _ float64) FaultVerdict {
		return FaultVerdict{Drop: from == 0 && to == 1}
	})
	if _, ok := f.TransferChecked(0, 1, 1024, 0); ok {
		t.Fatal("dropped transfer reported delivered")
	}
	drops++
	if _, ok := f.TransferChecked(1, 0, 1024, 0); !ok {
		t.Fatal("reverse direction should deliver")
	}
	// Plain Transfer models reliable delivery but still counts the drop.
	f.Transfer(0, 1, 1024, 0)
	drops++
	if _, _, got := fabricTotals(reg); got != int64(drops) {
		t.Fatalf("fabric/dropped = %d, want %d", got, drops)
	}
	f.ClearFaultHooks()
	if _, ok := f.TransferChecked(0, 1, 1024, 0); !ok {
		t.Fatal("drop survived ClearFaultHooks")
	}
	if _, _, got := fabricTotals(reg); got != int64(drops) {
		t.Fatalf("delivery after ClearFaultHooks counted a drop: %d", got)
	}
}
