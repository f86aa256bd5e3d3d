package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

func testCluster(t *testing.T, nWorkers int) *dask.Cluster {
	t.Helper()
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, nWorkers+4)
	wnodes := make([]netsim.NodeID, nWorkers)
	for i := range wnodes {
		wnodes[i] = netsim.NodeID(i + 2)
	}
	c := dask.NewCluster(fabric, dask.DefaultConfig(), 0, wnodes)
	t.Cleanup(c.Close)
	return c
}

func testVA() *VirtualArray {
	return &VirtualArray{
		Name:    "G_temp",
		Size:    []int{2, 4, 2}, // (t, X, Y)
		Subsize: []int{1, 2, 2},
		TimeDim: 0,
	}
}

func TestVirtualArrayValidate(t *testing.T) {
	if err := testVA().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*VirtualArray{
		{Name: "", Size: []int{2}, Subsize: []int{1}},
		{Name: "a", Size: []int{2}, Subsize: []int{1, 1}},
		{Name: "a", Size: []int{2}, Subsize: []int{1}, TimeDim: 5},
		{Name: "a", Size: []int{3, 4}, Subsize: []int{1, 3}}, // 3 does not tile 4
		{Name: "a", Size: []int{4, 4}, Subsize: []int{2, 2}}, // time block != 1
		{Name: "a", Size: []int{0, 4}, Subsize: []int{1, 2}}, // zero extent
	}
	for i, va := range bad {
		if err := va.Validate(); err == nil {
			t.Fatalf("bad descriptor %d accepted", i)
		}
	}
}

func TestVirtualArrayGrid(t *testing.T) {
	va := testVA()
	g := va.Grid()
	if g[0] != 2 || g[1] != 2 || g[2] != 1 {
		t.Fatalf("Grid = %v", g)
	}
}

func TestBlockKeyNamingScheme(t *testing.T) {
	va := testVA()
	k := va.BlockKey([]int{1, 0, 0})
	if k != "deisa-G_temp-1.0.0" {
		t.Fatalf("BlockKey = %s", k)
	}
	name, pos, err := ParseBlockKey(k)
	if err != nil || name != "G_temp" || pos[0] != 1 || pos[1] != 0 || pos[2] != 0 {
		t.Fatalf("ParseBlockKey = %q %v %v", name, pos, err)
	}
	if _, _, err := ParseBlockKey("nope-x"); err == nil {
		t.Fatal("bad prefix accepted")
	}
	if _, _, err := ParseBlockKey("deisa-a-x.y"); err == nil {
		t.Fatal("bad position accepted")
	}
}

func TestBlockStartRoundTrip(t *testing.T) {
	va := testVA()
	pos := []int{1, 1, 0}
	start := va.BlockStart(pos)
	if start[0] != 1 || start[1] != 2 || start[2] != 0 {
		t.Fatalf("BlockStart = %v", start)
	}
	got, err := va.PositionForStart(start)
	if err != nil {
		t.Fatal(err)
	}
	for d := range pos {
		if got[d] != pos[d] {
			t.Fatalf("roundtrip %v -> %v", pos, got)
		}
	}
	if _, err := va.PositionForStart([]int{0, 1, 0}); err == nil {
		t.Fatal("misaligned start accepted")
	}
	if _, err := va.PositionForStart([]int{9, 0, 0}); err == nil {
		t.Fatal("out-of-range start accepted")
	}
}

func TestWorkerForBlockStableAcrossTime(t *testing.T) {
	va := &VirtualArray{Name: "a", Size: []int{4, 8, 8}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			w0 := va.WorkerForBlock([]int{0, x, y}, 3)
			for tt := 1; tt < 4; tt++ {
				if va.WorkerForBlock([]int{tt, x, y}, 3) != w0 {
					t.Fatal("worker placement varies with time")
				}
			}
		}
	}
}

// Property: WorkerForBlock spreads spatial blocks evenly when the block
// count is a multiple of the worker count.
func TestWorkerForBlockSpreadQuick(t *testing.T) {
	f := func(seed int64) bool {
		w := int(seed%4+4)%4 + 1
		va := &VirtualArray{Name: "a", Size: []int{2, 4 * w, 4}, Subsize: []int{1, 4, 4}, TimeDim: 0}
		counts := make([]int, w)
		for x := 0; x < w; x++ {
			counts[va.WorkerForBlock([]int{0, x, 0}, w)]++
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestContractWantsBlock(t *testing.T) {
	c := NewContract()
	c.Add("a", [][]int{{-1, 0, 0}, {2, 1, 0}})
	if !c.WantsBlock("a", []int{5, 0, 0}, 0) {
		t.Fatal("wildcard time not honored")
	}
	if !c.WantsBlock("a", []int{2, 1, 0}, 0) {
		t.Fatal("explicit position not honored")
	}
	if c.WantsBlock("a", []int{3, 1, 0}, 0) {
		t.Fatal("unselected timestep accepted")
	}
	if c.WantsBlock("b", []int{0, 0, 0}, 0) {
		t.Fatal("unknown array accepted")
	}
	if c.SizeBytes() <= 0 {
		t.Fatal("SizeBytes")
	}
}

// runWorkflow executes the full handshake: one adaptor, R bridges, T
// timesteps, with the analytics summing all selected data. Returns the
// computed sum and the cluster for counter inspection.
func runWorkflow(t *testing.T, mode Mode, selectRanges []ndarray.Range) (float64, *dask.Cluster, []*Bridge) {
	t.Helper()
	const ranks = 2
	cluster := testCluster(t, 2)
	va := testVA() // (t=2, X=4, Y=2), blocks (1,2,2); rank r owns x-block r

	bridges := make([]*Bridge, ranks)
	for r := 0; r < ranks; r++ {
		hb := math.Inf(1)
		if mode == ModeDEISA1 {
			hb = 5
		}
		bridges[r] = NewBridge(BridgeConfig{
			Rank: r, Cluster: cluster, Node: netsim.NodeID(2 + r), HeartbeatInterval: hb, Mode: mode,
		})
		if err := bridges[r].DeclareArray(va); err != nil {
			t.Fatal(err)
		}
	}

	var sum float64
	var wg sync.WaitGroup
	errs := make(chan error, ranks+1)

	// Analytics side.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if mode == ModeDEISA1 {
			client := cluster.NewClient("analytics", 1, math.Inf(1))
			ad := NewDeisa1Adaptor(client, ranks)
			msg, err := ad.GetDeisaArrays()
			if err != nil {
				errs <- err
				return
			}
			vva := msg.Arrays[0]
			total := 0.0
			for step := 0; step < vva.Size[vva.TimeDim]; step++ {
				keys, err := ad.NextStepKeys()
				if err != nil {
					errs <- err
					return
				}
				g := taskgraph.New()
				target := taskgraph.Key(fmt.Sprintf("sum-%d", step))
				g.AddFn(target, keys, func(in []any) (any, error) {
					s := 0.0
					for _, v := range in {
						s += v.(*ndarray.Array).Sum()
					}
					return s, nil
				}, 1e-4)
				futs, err := client.Submit(g, []taskgraph.Key{target})
				if err != nil {
					errs <- err
					return
				}
				vals, err := client.Gather(futs)
				if err != nil {
					errs <- err
					return
				}
				total += vals[0].(float64)
			}
			sum = total
			return
		}
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, err := set.Get("G_temp")
		if err != nil {
			errs <- err
			return
		}
		if selectRanges == nil {
			da.SelectAll()
		} else {
			da.Select(selectRanges...)
		}
		if _, err := set.ValidateContract(); err != nil {
			errs <- err
			return
		}
		// Sum only over the selected chunks (submitted ahead of data).
		g := taskgraph.New()
		keys := da.Keys()
		g.AddFn("sum-all", keys, func(in []any) (any, error) {
			s := 0.0
			for _, v := range in {
				s += v.(*ndarray.Array).Sum()
			}
			return s, nil
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"sum-all"})
		if err != nil {
			errs <- err
			return
		}
		vals, err := d.Client().Gather(futs)
		if err != nil {
			errs <- err
			return
		}
		sum = vals[0].(float64)
	}()

	// Simulation side: ranks publish their block each timestep.
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			b := bridges[r]
			now, err := b.Init(0)
			if err != nil {
				errs <- err
				return
			}
			for step := 0; step < 2; step++ {
				blk := ndarray.New(1, 2, 2)
				blk.Fill(float64(r + step))
				now, _, err = b.Publish("G_temp", []int{step, r, 0}, blk, now+0.1)
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return sum, cluster, bridges
}

func TestEndToEndExternalWorkflow(t *testing.T) {
	sum, cluster, bridges := runWorkflow(t, ModeExternal, nil)
	// Sum = 4*(r+step) over r,step in {0,1}^2 = 4*(0+1+1+2) = 16.
	if sum != 16 {
		t.Fatalf("sum = %v, want 16", sum)
	}
	for _, b := range bridges {
		sent, skipped := b.Stats()
		if sent != 2 || skipped != 0 {
			t.Fatalf("bridge %d stats: sent=%d skipped=%d", b.Rank(), sent, skipped)
		}
	}
	snap := cluster.Metrics().Snapshot()
	if snap.Counter("dask/external_created") != 4 {
		t.Fatalf("external tasks created = %d, want 4", snap.Counter("dask/external_created"))
	}
	if snap.Counter("dask/queue_ops") != 0 {
		t.Fatalf("external mode used queues: %d ops", snap.Counter("dask/queue_ops"))
	}
	if snap.Counter("dask/heartbeats") != 0 {
		t.Fatalf("infinite heartbeat sent %d messages", snap.Counter("dask/heartbeats"))
	}
}

func TestEndToEndContractFiltering(t *testing.T) {
	// Select only x in [0,2) — rank 0's block — across all time and y.
	sum, _, bridges := runWorkflow(t, ModeExternal, []ndarray.Range{
		{Start: 0, Stop: 2}, {Start: 0, Stop: 2}, {Start: 0, Stop: 2},
	})
	// Only rank 0 blocks: 4*(0) + 4*(1) = 4.
	if sum != 4 {
		t.Fatalf("filtered sum = %v, want 4", sum)
	}
	s0, k0 := bridges[0].Stats()
	s1, k1 := bridges[1].Stats()
	if s0 != 2 || k0 != 0 {
		t.Fatalf("rank0 stats: %d/%d", s0, k0)
	}
	if s1 != 0 || k1 != 2 {
		t.Fatalf("rank1 should skip everything, got sent=%d skipped=%d", s1, k1)
	}
}

func TestEndToEndDeisa1Workflow(t *testing.T) {
	sum, cluster, _ := runWorkflow(t, ModeDEISA1, nil)
	if sum != 16 {
		t.Fatalf("deisa1 sum = %v, want 16", sum)
	}
	snap := cluster.Metrics().Snapshot()
	// 2 ranks × 2 steps: one queue Put per publish and one Get per
	// consume -> 2·T·R queue operations (§2.1's metadata pattern).
	if snap.Counter("dask/queue_ops") != 8 {
		t.Fatalf("queue ops = %d, want 8 (= 2·T·R)", snap.Counter("dask/queue_ops"))
	}
	if snap.Counter("dask/external_created") != 0 {
		t.Fatal("deisa1 created external tasks")
	}
	if snap.Counter("dask/graphs_submitted") != 2 {
		t.Fatalf("deisa1 submitted %d graphs, want one per step", snap.Counter("dask/graphs_submitted"))
	}
}

func TestMetadataMessageFormulas(t *testing.T) {
	// The paper's §2.1 claim: DEISA1 needs 2·T·R coordination messages
	// (plus heartbeats); the external design needs 1+R (descriptor set +
	// one contract get per rank) plus the one-off contract set and
	// external-task creation.
	_, c1, _ := runWorkflow(t, ModeDEISA1, nil)
	snap1 := c1.Metrics().Snapshot()
	T, R := int64(2), int64(2)
	if got := snap1.Counter("dask/queue_ops"); got != 2*T*R {
		t.Fatalf("DEISA1 coordination msgs = %d, want %d", got, 2*T*R)
	}
	_, c3, _ := runWorkflow(t, ModeExternal, nil)
	snap3 := c3.Metrics().Snapshot()
	// Variable ops: 1 arrays Set + 1 arrays Get + 1 contract Set + R
	// contract Gets = 3 + R, independent of T.
	if got := snap3.Counter("dask/variable_ops"); got != 3+R {
		t.Fatalf("external coordination msgs = %d, want %d", got, 3+R)
	}
	if snap3.Counter("dask/queue_ops") != 0 {
		t.Fatal("external mode used queues")
	}
}

func TestBridgeErrors(t *testing.T) {
	cluster := testCluster(t, 1)
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2, HeartbeatInterval: math.Inf(1)})
	if _, err := b.Init(0); err == nil {
		t.Fatal("Init with no arrays accepted")
	}
	if err := b.DeclareArray(testVA()); err != nil {
		t.Fatal(err)
	}
	if err := b.DeclareArray(testVA()); err == nil {
		t.Fatal("duplicate declare accepted")
	}
	if _, _, err := b.Publish("G_temp", []int{0, 0, 0}, ndarray.New(1, 2, 2), 0); err == nil {
		t.Fatal("Publish before Init accepted")
	}
}

// BlockStart returns the element offset of a block position: the inverse
// the round-trip test checks PositionForStart against.
func (v *VirtualArray) BlockStart(pos []int) []int {
	start := make([]int, len(pos))
	for d, p := range pos {
		start[d] = p * v.Subsize[d]
	}
	return start
}
