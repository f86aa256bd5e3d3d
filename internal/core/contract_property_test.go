package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// Property: for a random spatiotemporal selection, the bridges ship
// exactly the selected blocks (sent+skipped == produced), and the
// analytics sum over the selection equals the analytically expected sum.
func TestContractExactnessQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := rng.Intn(3) + 1
		steps := rng.Intn(3) + 1
		// Random time window and rank window.
		t0 := rng.Intn(steps)
		t1 := t0 + 1 + rng.Intn(steps-t0)
		r0 := rng.Intn(ranks)
		r1 := r0 + 1 + rng.Intn(ranks-r0)

		cfg := netsim.Config{
			NodesPerSwitch: 8, LinkBandwidth: 1e9, PruneFactor: 2,
			HopLatency: 1e-6, SoftwareLatency: 1e-5,
		}
		fabric := netsim.New(cfg, ranks+4)
		cluster := dask.NewCluster(fabric, dask.DefaultConfig(), 0,
			[]netsim.NodeID{2, 3})
		defer cluster.Close()

		va := &VirtualArray{
			Name:    "G_q",
			Size:    []int{steps, 2, 2 * ranks},
			Subsize: []int{1, 2, 2},
			TimeDim: 0,
		}
		bridges := make([]*Bridge, ranks)
		for r := 0; r < ranks; r++ {
			bridges[r] = NewBridge(BridgeConfig{
				Rank: r, Cluster: cluster, Node: netsim.NodeID(4 + r%(ranks+1)),
				HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
			})
			if err := bridges[r].DeclareArray(va); err != nil {
				return false
			}
		}

		var sum float64
		var wg sync.WaitGroup
		fail := false
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := Connect(cluster, 1)
			set, err := d.GetDeisaArrays()
			if err != nil {
				fail = true
				return
			}
			da, _ := set.Get("G_q")
			da.Select(
				ndarray.Range{Start: t0, Stop: t1},
				ndarray.Range{Start: 0, Stop: 2},
				ndarray.Range{Start: 2 * r0, Stop: 2 * r1},
			)
			if _, err := set.ValidateContract(); err != nil {
				fail = true
				return
			}
			g := taskgraph.New()
			g.AddFn("sum", da.Keys(), func(in []any) (any, error) {
				s := 0.0
				for _, v := range in {
					s += v.(*ndarray.Array).Sum()
				}
				return s, nil
			}, 1e-5)
			futs, err := d.Client().Submit(g, []taskgraph.Key{"sum"})
			if err != nil {
				fail = true
				return
			}
			vals, err := d.Client().Gather(futs)
			if err != nil {
				fail = true
				return
			}
			sum = vals[0].(float64)
		}()
		for r := 0; r < ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				b := bridges[r]
				now, err := b.Init(0)
				if err != nil {
					fail = true
					return
				}
				for step := 0; step < steps; step++ {
					blk := ndarray.New(1, 2, 2)
					blk.Fill(float64(1 + step*10 + r))
					now, _, err = b.Publish("G_q", []int{step, 0, r}, blk, now+0.01)
					if err != nil {
						fail = true
						return
					}
				}
			}(r)
		}
		wg.Wait()
		if fail {
			return false
		}
		// Expected sum and block accounting.
		want := 0.0
		for step := t0; step < t1; step++ {
			for r := r0; r < r1; r++ {
				want += 4 * float64(1+step*10+r)
			}
		}
		if sum != want {
			return false
		}
		var sent, skipped int64
		for _, b := range bridges {
			s, k := b.Stats()
			sent += s
			skipped += k
		}
		wantSent := int64((t1 - t0) * (r1 - r0))
		return sent == wantSent && sent+skipped == int64(steps*ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
