package core

import (
	"math"
	"sync"
	"testing"

	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// TestMultiArrayWorkflow couples two fields (temperature and pressure)
// through one bridge per rank, with independent selections per array —
// the generalization §5 alludes to for multi-code / digital-twin
// workflows.
func TestMultiArrayWorkflow(t *testing.T) {
	cluster := testCluster(t, 2)
	const ranks = 2
	temp := &VirtualArray{Name: "G_temp", Size: []int{2, 4, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	pres := &VirtualArray{Name: "G_pres", Size: []int{2, 4, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}

	bridges := make([]*Bridge, ranks)
	for r := 0; r < ranks; r++ {
		bridges[r] = NewBridge(BridgeConfig{
			Rank: r, Cluster: cluster, Node: netsim.NodeID(2 + r),
			HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
		})
		if err := bridges[r].DeclareArray(temp); err != nil {
			t.Fatal(err)
		}
		if err := bridges[r].DeclareArray(pres); err != nil {
			t.Fatal(err)
		}
	}

	var tempSum, presSum float64
	var wg sync.WaitGroup
	errs := make(chan error, ranks+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		if names := set.Names(); len(names) != 2 || names[0] != "G_pres" || names[1] != "G_temp" {
			errs <- errNames(names)
			return
		}
		daT, _ := set.Get("G_temp")
		daP, _ := set.Get("G_pres")
		daT.SelectAll()
		// Pressure: only the first timestep.
		daP.Select(ndarray.Range{Start: 0, Stop: 1},
			ndarray.Range{Start: 0, Stop: 4}, ndarray.Range{Start: 0, Stop: 2})
		if _, err := set.ValidateContract(); err != nil {
			errs <- err
			return
		}
		g := taskgraph.New()
		sum := func(key taskgraph.Key, deps []taskgraph.Key) {
			g.AddFn(key, deps, func(in []any) (any, error) {
				s := 0.0
				for _, v := range in {
					s += v.(*ndarray.Array).Sum()
				}
				return s, nil
			}, 1e-4)
		}
		sum("t-sum", daT.Keys())
		sum("p-sum", daP.Keys())
		futs, err := d.Client().Submit(g, []taskgraph.Key{"t-sum", "p-sum"})
		if err != nil {
			errs <- err
			return
		}
		vals, err := d.Client().Gather(futs)
		if err != nil {
			errs <- err
			return
		}
		tempSum = vals[0].(float64)
		presSum = vals[1].(float64)
	}()

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
				tBlk := ndarray.New(1, 2, 2)
				tBlk.Fill(float64(1 + r + step))
				pBlk := ndarray.New(1, 2, 2)
				pBlk.Fill(float64(100 * (1 + r + step)))
				now, _, err = b.Publish("G_temp", []int{step, r, 0}, tBlk, now+0.1)
				if err != nil {
					errs <- err
					return
				}
				now, _, err = b.Publish("G_pres", []int{step, r, 0}, pBlk, now)
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
	// Temperature: 4*(1+2+2+3) = 32. Pressure, step 0 only: 4*(100+200).
	if tempSum != 32 {
		t.Fatalf("temp sum = %v, want 32", tempSum)
	}
	if presSum != 1200 {
		t.Fatalf("pressure sum = %v, want 1200", presSum)
	}
	// Pressure step-1 blocks were filtered at the bridges.
	var skipped int64
	for _, b := range bridges {
		_, k := b.Stats()
		skipped += k
	}
	if skipped != 2 {
		t.Fatalf("skipped blocks = %d, want 2 (pressure step 1)", skipped)
	}
}

type errNames []string

func (e errNames) Error() string { return "unexpected array names" }

// TestTimeWindowContract selects a time subrange of a single array: the
// contract must include exactly those steps, and bridges must skip the
// rest (no time wildcard).
func TestTimeWindowContract(t *testing.T) {
	cluster := testCluster(t, 2)
	va := &VirtualArray{Name: "G_f", Size: []int{4, 2, 2}, Subsize: []int{1, 2, 2}, TimeDim: 0}
	b := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2,
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal})
	if err := b.DeclareArray(va); err != nil {
		t.Fatal(err)
	}

	var got float64
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, _ := set.Get("G_f")
		// Steps 1 and 2 only.
		da.Select(ndarray.Range{Start: 1, Stop: 3},
			ndarray.Range{Start: 0, Stop: 2}, ndarray.Range{Start: 0, Stop: 2})
		contract, err := set.ValidateContract()
		if err != nil {
			errs <- err
			return
		}
		if contract.WantsBlock("G_f", []int{0, 0, 0}, 0) || !contract.WantsBlock("G_f", []int{2, 0, 0}, 0) {
			errs <- errNames(nil)
			return
		}
		g := taskgraph.New()
		g.AddFn("s", da.Keys(), func(in []any) (any, error) {
			s := 0.0
			for _, v := range in {
				s += v.(*ndarray.Array).Sum()
			}
			return s, nil
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"s"})
		if err != nil {
			errs <- err
			return
		}
		vals, err := d.Client().Gather(futs)
		if err != nil {
			errs <- err
			return
		}
		got = vals[0].(float64)
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		now, err := b.Init(0)
		if err != nil {
			errs <- err
			return
		}
		for step := 0; step < 4; step++ {
			blk := ndarray.New(1, 2, 2)
			blk.Fill(float64(step))
			now, _, err = b.Publish("G_f", []int{step, 0, 0}, blk, now+0.1)
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got != 4*(1+2) {
		t.Fatalf("windowed sum = %v, want 12", got)
	}
	sent, skipped := b.Stats()
	if sent != 2 || skipped != 2 {
		t.Fatalf("bridge stats sent=%d skipped=%d, want 2/2", sent, skipped)
	}
}

// TestFiveDimensionalVirtualArray exercises the generality of the
// descriptor and naming scheme beyond 2-D fields: the paper's motivating
// use case is the 5-dimensional Gysela distribution function.
func TestFiveDimensionalVirtualArray(t *testing.T) {
	va := &VirtualArray{
		Name:    "f5d",
		Size:    []int{6, 4, 4, 2, 8}, // (t, r, theta, phi, vpar)
		Subsize: []int{1, 2, 4, 2, 8}, // 2 blocks along r
		TimeDim: 0,
	}
	if err := va.Validate(); err != nil {
		t.Fatal(err)
	}
	if g := va.Grid(); g[1] != 2 || g[0] != 6 {
		t.Fatalf("grid = %v, want 6 steps of 2 blocks", g)
	}
	key := va.BlockKey([]int{3, 1, 0, 0, 0})
	if key != "deisa-f5d-3.1.0.0.0" {
		t.Fatalf("key = %s", key)
	}
	name, pos, err := ParseBlockKey(key)
	if err != nil || name != "f5d" || len(pos) != 5 || pos[0] != 3 || pos[1] != 1 {
		t.Fatalf("parse = %q %v %v", name, pos, err)
	}
	da := &DeisaArray{VA: va}
	da.SelectAll()
	if n := len(da.Keys()); n != 12 {
		t.Fatalf("chunks = %d", n)
	}
	// Worker placement stable across time in 5-D too.
	if va.WorkerForBlock([]int{0, 1, 0, 0, 0}, 3) != va.WorkerForBlock([]int{5, 1, 0, 0, 0}, 3) {
		t.Fatal("5-D placement varies with time")
	}
}
