package core_test

import (
	"fmt"
	"math"
	"sync"

	"deisago/internal/core"
	"deisago/internal/dask"
	"deisago/internal/ml"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// deployment is one small in transit run after it finished.
type deployment struct {
	cluster *dask.Cluster
	bridges []*core.Bridge // indexed by rank
	values  []any          // the gathered analytics targets
}

// couple runs one in transit workflow on a small fabric: the scheduler
// on node 0, the analytics client on node 1, two Dask workers on nodes
// 2–3 and the simulation ranks two per node from node 4. Every rank's
// bridge declares vas (DEISA3: no heartbeats).
//
// The analytics side reads the published arrays, lets analyse select
// blocks and build a graph over them, signs the contract, submits the
// graph before any data exists and gathers its targets. Each rank, once
// the contract is signed, calls produce for every step; produce hands
// its blocks to publish. couple returns when both sides are done and
// panics on the first error.
func couple(ranks, steps int, vas []*core.VirtualArray,
	analyse func(set *core.ArraySet) (*taskgraph.Graph, []taskgraph.Key),
	produce func(rank, step int, publish func(array string, pos []int, block *ndarray.Array))) *deployment {
	fabric := netsim.New(netsim.DefaultConfig(), 4+(ranks+1)/2)
	cluster := dask.NewCluster(fabric, dask.DefaultConfig(), 0, []netsim.NodeID{2, 3})
	defer cluster.Close()
	fabric.UseMetrics(cluster.Metrics())

	dep := &deployment{cluster: cluster, bridges: make([]*core.Bridge, ranks)}
	for r := range dep.bridges {
		dep.bridges[r] = core.NewBridge(core.BridgeConfig{
			Rank: r, Cluster: cluster, Node: netsim.NodeID(4 + r/2),
			HeartbeatInterval: math.Inf(1), Mode: core.ModeExternal,
		})
		for _, va := range vas {
			must(dep.bridges[r].DeclareArray(va))
		}
	}

	var wg sync.WaitGroup
	wg.Add(ranks + 1)
	go func() {
		defer wg.Done()
		client := core.Connect(cluster, 1)
		set, err := client.GetDeisaArrays()
		must(err)
		g, targets := analyse(set)
		_, err = set.ValidateContract()
		must(err)
		futs, err := client.Client().Submit(g, targets)
		must(err)
		dep.values, err = client.Client().Gather(futs)
		must(err)
	}()
	for r, b := range dep.bridges {
		go func() {
			defer wg.Done()
			now, err := b.Init(0)
			must(err)
			publish := func(array string, pos []int, block *ndarray.Array) {
				now, _, err = b.Publish(array, pos, block, now+0.1)
				must(err)
			}
			for t := 0; t < steps; t++ {
				produce(r, t, publish)
			}
		}()
	}
	wg.Wait()
	return dep
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// field is a (time, X, Y) virtual array with one bx×by block per rank
// along Y.
func field(name string, ranks, steps, bx, by int) *core.VirtualArray {
	return &core.VirtualArray{
		Name:    name,
		Size:    []int{steps, bx, by * ranks},
		Subsize: []int{1, bx, by},
		TimeDim: 0,
	}
}

// filled returns a 1×bx×by block holding v everywhere.
func filled(bx, by int, v float64) *ndarray.Array {
	a := ndarray.New(1, bx, by)
	a.Fill(v)
	return a
}

// Example_quickstart couples a toy two-rank simulation with distributed
// analytics. The consumer selects every block of the virtual array and
// builds a mean/std graph over them; the graph is submitted before any
// data exists, and each block a rank publishes completes an external
// task.
func Example_quickstart() {
	const ranks, steps = 2, 4
	run := couple(ranks, steps, []*core.VirtualArray{field("field", ranks, steps, 8, 8)},
		func(set *core.ArraySet) (*taskgraph.Graph, []taskgraph.Key) {
			da, _ := set.Get("field")
			da.SelectAll() // gt = arrays["field"][...]
			g := taskgraph.New()
			g.AddFn("stats", da.Keys(), func(in []any) (any, error) {
				var sum, sum2, n float64
				for _, v := range in {
					for _, x := range v.(*ndarray.Array).Copy().Data() {
						sum += x
						sum2 += x * x
						n++
					}
				}
				m := sum / n
				return []float64{m, math.Sqrt(sum2/n - m*m)}, nil
			}, 1e-4)
			return g, []taskgraph.Key{"stats"}
		},
		func(rank, step int, publish func(string, []int, *ndarray.Array)) {
			publish("field", []int{step, 0, rank}, filled(8, 8, float64(step+rank))) // stand-in for real physics
		})

	for _, b := range run.bridges {
		sent, _ := b.Stats()
		fmt.Printf("rank %d published %d blocks\n", b.Rank(), sent)
	}
	stats := run.values[0].([]float64)
	fmt.Printf("in-transit analytics result: mean=%.4f std=%.4f\n", stats[0], stats[1])
	reg := run.cluster.Metrics()
	fmt.Printf("external tasks created: %d, graphs submitted: %d\n",
		reg.Counter("dask", "external_created").Load(), reg.Counter("dask", "graphs_submitted").Load())
	// Output:
	// rank 0 published 4 blocks
	// rank 1 published 4 blocks
	// in-transit analytics result: mean=2.0000 std=1.2247
	// external tasks created: 8, graphs submitted: 1
}

// Example_contracts shows automatic data filtering. The analytics
// selects a sub-region of the virtual array with the [] operator, the
// contract is signed once, and every bridge then filters locally:
// blocks outside the selection never leave their rank.
func Example_contracts() {
	const ranks, steps, bx, by = 8, 5, 16, 4
	runOnce := func(sel func(da *core.DeisaArray)) (sent, skipped int64, sum float64, bytes int64) {
		run := couple(ranks, steps, []*core.VirtualArray{field("field", ranks, steps, bx, by)},
			func(set *core.ArraySet) (*taskgraph.Graph, []taskgraph.Key) {
				da, _ := set.Get("field")
				sel(da)
				g := taskgraph.New()
				g.AddFn("sum", da.Keys(), func(in []any) (any, error) {
					s := 0.0
					for _, v := range in {
						s += v.(*ndarray.Array).Sum()
					}
					return s, nil
				}, 1e-4)
				return g, []taskgraph.Key{"sum"}
			},
			func(rank, step int, publish func(string, []int, *ndarray.Array)) {
				publish("field", []int{step, 0, rank}, filled(bx, by, 1))
			})
		for _, b := range run.bridges {
			s, k := b.Stats()
			sent += s
			skipped += k
		}
		bytes = run.cluster.Metrics().Snapshot().SumCounters("fabric/bytes{")
		return sent, skipped, run.values[0].(float64), bytes
	}

	fullSent, fullSkipped, fullSum, fullBytes := runOnce(func(da *core.DeisaArray) { da.SelectAll() })
	fmt.Printf("select [...] (everything): blocks sent=%d skipped=%d, sum=%g\n", fullSent, fullSkipped, fullSum)
	halfSent, halfSkipped, halfSum, halfBytes := runOnce(func(da *core.DeisaArray) {
		// Only the lower half of the Y domain, all timesteps.
		da.Select(ndarray.Range{Start: 0, Stop: steps}, ndarray.Range{Start: 0, Stop: bx},
			ndarray.Range{Start: 0, Stop: by * ranks / 2})
	})
	fmt.Printf("select lower half of Y:    blocks sent=%d skipped=%d, sum=%g\n", halfSent, halfSkipped, halfSum)
	fmt.Println("filtering moved fewer fabric bytes:", halfBytes < fullBytes)
	// Output:
	// select [...] (everything): blocks sent=40 skipped=0, sum=2560
	// select lower half of Y:    blocks sent=20 skipped=20, sum=1280
	// filtering moved fewer fabric bytes: true
}

// Example_multifield publishes two fields with independent contracts,
// the "external tasks are more general" direction of the paper's §5.
// The analytics subscribes to the whole temperature timeline but only
// the final velocity snapshot; each bridge filters per array.
func Example_multifield() {
	const ranks, steps, bx, by = 4, 6, 8, 8
	vas := []*core.VirtualArray{field("temperature", ranks, steps, bx, by), field("velocity", ranks, steps, bx, by)}
	var names []string

	run := couple(ranks, steps, vas, func(set *core.ArraySet) (*taskgraph.Graph, []taskgraph.Key) {
		names = set.Names()
		temp, _ := set.Get("temperature")
		vel, _ := set.Get("velocity")
		temp.SelectAll()
		vel.Select( // only the last timestep of the velocity field
			ndarray.Range{Start: steps - 1, Stop: steps},
			ndarray.Range{Start: 0, Stop: bx},
			ndarray.Range{Start: 0, Stop: by * ranks},
		)
		// stepKeys returns the blocks of one timestep of one field.
		stepKeys := func(da *core.DeisaArray, t int) []taskgraph.Key {
			keys := make([]taskgraph.Key, ranks)
			for b := range keys {
				keys[b] = da.VA.BlockKey([]int{t, 0, b})
			}
			return keys
		}

		g := taskgraph.New()
		// Per-timestep global temperature mean (a trend line).
		var targets []taskgraph.Key
		for t := 0; t < steps; t++ {
			key := taskgraph.Key(fmt.Sprintf("t-mean-%d", t))
			g.AddFn(key, stepKeys(temp, t), func(in []any) (any, error) {
				sum, n := 0.0, 0.0
				for _, v := range in {
					a := v.(*ndarray.Array)
					sum += a.Sum()
					n += float64(a.Size())
				}
				return sum / n, nil
			}, 1e-4)
			targets = append(targets, key)
		}
		// Final-step velocity maximum.
		g.AddFn("v-max", stepKeys(vel, steps-1), func(in []any) (any, error) {
			m := math.Inf(-1)
			for _, v := range in {
				m = math.Max(m, v.(*ndarray.Array).MaxAxis(0).MaxAxis(0).MaxAxis(0).At())
			}
			return m, nil
		}, 1e-4)
		return g, append(targets, "v-max")
	}, func(rank, step int, publish func(string, []int, *ndarray.Array)) {
		publish("temperature", []int{step, 0, rank}, filled(bx, by, 20+float64(step)*1.5)) // warming trend
		publish("velocity", []int{step, 0, rank}, filled(bx, by, float64(rank)+0.1*float64(step)))
	})

	fmt.Printf("published deisa arrays: %v\n", names)
	for _, b := range run.bridges {
		sent, skipped := b.Stats()
		fmt.Printf("rank %d: %d blocks sent, %d filtered by contracts\n", b.Rank(), sent, skipped)
	}
	fmt.Printf("temperature trend (global mean per step): %v\n", run.values[:steps])
	fmt.Printf("final-step velocity max: %.1f\n", run.values[steps])
	// Output:
	// published deisa arrays: [temperature velocity]
	// rank 0: 7 blocks sent, 5 filtered by contracts
	// rank 1: 7 blocks sent, 5 filtered by contracts
	// rank 2: 7 blocks sent, 5 filtered by contracts
	// rank 3: 7 blocks sent, 5 filtered by contracts
	// temperature trend (global mean per step): [20 21.5 23 24.5 26 27.5]
	// final-step velocity max: 3.5
}

// Example_gysela5d compresses a Gysela-style 5-D distribution function
// f(t, r, θ, φ, v∥) in transit, the paper's motivating application (§3).
// Ranks own slabs along r; per step and block the analytics folds
// (r, θ, φ) into samples and v∥ into features, then chains incremental
// PCA partial fits, all declared ahead of time as external tasks.
func Example_gysela5d() {
	const (
		ranks, steps              = 4, 8
		nR, nTheta, nPhi, nVpar   = 8, 6, 4, 16 // nR per rank
		components                = 3
		samplesPerBlock, features = nR * nTheta * nPhi, nVpar
	)
	va := &core.VirtualArray{
		Name:    "f5d",
		Size:    []int{steps, nR * ranks, nTheta, nPhi, nVpar},
		Subsize: []int{1, nR, nTheta, nPhi, nVpar},
		TimeDim: 0,
	}

	run := couple(ranks, steps, []*core.VirtualArray{va}, func(set *core.ArraySet) (*taskgraph.Graph, []taskgraph.Key) {
		da, _ := set.Get("f5d")
		da.SelectAll()
		g := taskgraph.New()
		spec := ml.FoldSpec{
			Dims:        []string{"t", "r", "theta", "phi", "vpar"},
			SampleDims:  []string{"t", "r", "theta", "phi"},
			FeatureDims: []string{"vpar"},
		}
		var prev taskgraph.Key
		for step := 0; step < steps; step++ {
			var deps []taskgraph.Key
			if prev != "" {
				deps = append(deps, prev)
			}
			for b := 0; b < ranks; b++ {
				deps = append(deps, ml.AddFoldTask(g, taskgraph.Key(fmt.Sprintf("fold-%d-%d", step, b)),
					va.BlockKey([]int{step, b, 0, 0, 0}), spec, samplesPerBlock*features*8))
			}
			hasPrev := prev != ""
			prev = taskgraph.Key(fmt.Sprintf("state-%d", step))
			g.AddFn(prev, deps, func(in []any) (any, error) {
				e := ml.NewIncrementalPCA(components)
				if hasPrev {
					e, in = in[0].(*ml.IncrementalPCA).Clone(), in[1:]
				}
				mats := make([]*ndarray.Array, len(in))
				for i, v := range in {
					mats[i] = v.(*ndarray.Array)
				}
				return e, e.PartialFit(ndarray.Concat(0, mats...))
			}, 1e-3)
		}
		return g, []taskgraph.Key{prev}
	}, func(rank, step int, publish func(string, []int, *ndarray.Array)) {
		// A smooth drifting Maxwellian-like block: low-rank in v∥, so
		// PCA compresses it well.
		block := ndarray.New(1, nR, nTheta, nPhi, nVpar)
		for r := 0; r < nR; r++ {
			drift := 0.3*float64(step) + 0.1*float64(rank*nR+r)
			for th := 0; th < nTheta; th++ {
				for ph := 0; ph < nPhi; ph++ {
					mod := 1 + 0.2*math.Sin(2*math.Pi*float64(th)/nTheta)*math.Cos(2*math.Pi*float64(ph)/nPhi)
					for v := 0; v < nVpar; v++ {
						vv := (float64(v)-float64(nVpar)/2)/4 - 0.2*drift
						block.Set(math.Exp(-vv*vv)*mod, 0, r, th, ph, v)
					}
				}
			}
		}
		publish("f5d", []int{step, rank, 0, 0, 0}, block)
	})

	est := run.values[0].(*ml.IncrementalPCA)
	captured := 0.0
	for _, r := range est.ExplainedVarianceRatio {
		captured += r
	}
	samples := steps * ranks * samplesPerBlock
	full := samples * features
	compressed := components * (features + samples/features) // components + coefficients (approx)
	fmt.Printf("5-D distribution function: %d samples × %d features over %d steps\n", samples, features, steps)
	fmt.Printf("incremental PCA (k=%d): explained variance ratios %.4f %.4f %.4f  (Σ %.2f%%)\n",
		components, est.ExplainedVarianceRatio[0], est.ExplainedVarianceRatio[1],
		est.ExplainedVarianceRatio[2], 100*captured)
	fmt.Printf("compression: %d values → ~%d (x%.0f smaller)\n", full, compressed, float64(full)/float64(compressed))
	// Output:
	// 5-D distribution function: 6144 samples × 16 features over 8 steps
	// incremental PCA (k=3): explained variance ratios 0.7955 0.1815 0.0225  (Σ 99.95%)
	// compression: 98304 values → ~1200 (x82 smaller)
}
