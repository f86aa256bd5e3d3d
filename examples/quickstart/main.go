// Quickstart: couple a toy two-rank "simulation" with distributed
// analytics through deisa external tasks.
//
// The producer side publishes one block per rank per timestep; the
// consumer side declares what it needs, signs the contract, submits an
// analytics graph BEFORE any data exists, and gathers the result once
// the simulation has produced everything.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math"
	"sync"

	"deisago/internal/core"
	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

const (
	ranks     = 2
	timesteps = 4
	blockX    = 8
	blockY    = 8
)

func main() {
	// A small fabric: scheduler on node 0, client on node 1, two workers
	// on nodes 2-3, the two simulation ranks on nodes 4-5.
	fabric := netsim.New(netsim.DefaultConfig(), 6)
	cluster := dask.NewCluster(fabric, dask.DefaultConfig(), 0,
		[]netsim.NodeID{2, 3})
	defer cluster.Close()

	// The virtual array: (time, X, Y) with one block per rank along Y.
	va := &core.VirtualArray{
		Name:    "field",
		Size:    []int{timesteps, blockX, blockY * ranks},
		Subsize: []int{1, blockX, blockY},
		TimeDim: 0,
	}

	var wg sync.WaitGroup
	var mean, std float64

	// ---- Consumer (analytics client) --------------------------------
	wg.Add(1)
	go func() {
		defer wg.Done()
		d := core.Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			log.Fatal(err)
		}
		da, err := set.Get("field")
		if err != nil {
			log.Fatal(err)
		}
		da.SelectAll() // gt = arrays["field"][...]
		if _, err := set.ValidateContract(); err != nil {
			log.Fatal(err)
		}

		// Build a mean/std graph over every future block — ahead of time.
		g := taskgraph.New()
		keys := da.Selection().Keys()
		g.AddFn("stats", keys, func(in []any) (any, error) {
			var sum, sum2, n float64
			for _, v := range in {
				arr := v.(*ndarray.Array)
				for _, x := range arr.Copy().Data() {
					sum += x
					sum2 += x * x
					n++
				}
			}
			m := sum / n
			return []float64{m, math.Sqrt(sum2/n - m*m)}, nil
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"stats"})
		if err != nil {
			log.Fatal(err)
		}
		vals, err := d.Client().Gather(futs)
		if err != nil {
			log.Fatal(err)
		}
		out := vals[0].([]float64)
		mean, std = out[0], out[1]
	}()

	// ---- Producer (simulation ranks) ---------------------------------
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bridge := core.NewBridge(core.BridgeConfig{
				Rank:              r,
				Cluster:           cluster,
				Node:              netsim.NodeID(4 + r),
				HeartbeatInterval: math.Inf(1), // DEISA3: no heartbeats
				Mode:              core.ModeExternal,
			})
			if err := bridge.DeclareArray(va); err != nil {
				log.Fatal(err)
			}
			now, err := bridge.Init(0)
			if err != nil {
				log.Fatal(err)
			}
			for t := 0; t < timesteps; t++ {
				block := ndarray.New(1, blockX, blockY)
				block.Fill(float64(t + r)) // stand-in for real physics
				now, _, err = bridge.Publish("field", []int{t, 0, r}, block, now+0.1)
				if err != nil {
					log.Fatal(err)
				}
			}
			fmt.Printf("rank %d finished publishing at t=%.3fs (virtual)\n", r, now)
		}(r)
	}

	wg.Wait()
	fmt.Printf("in-transit analytics result: mean=%.4f std=%.4f\n", mean, std)
	reg := cluster.Metrics()
	fmt.Printf("external tasks created: %d, graphs submitted: %d\n",
		reg.Counter("dask", "external_created").Load(), reg.Counter("dask", "graphs_submitted").Load())
}
