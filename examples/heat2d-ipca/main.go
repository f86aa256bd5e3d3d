// Heat2D + in situ incremental PCA: the paper's end-to-end workflow
// (Listing 2), at a laptop-friendly scale.
//
// A Heat2D simulation runs on the MPI substrate, publishes its field
// through deisa bridges every timestep, and a Dask-like analytics client
// fits a multidimensional incremental PCA on the data as it is produced —
// the whole analytics graph submitted before the first timestep exists.
//
//	go run ./examples/heat2d-ipca
package main

import (
	"fmt"
	"log"

	"deisago/internal/harness"
)

func main() {
	cfg := harness.Config{
		System:     harness.DEISA3,
		Ranks:      8,
		Workers:    4,
		Timesteps:  10,
		BlockBytes: 32 << 20, // each rank's block models 32 MiB
		Seed:       1,
	}
	res, err := harness.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Heat2D + in situ incremental PCA (DEISA3 / external tasks)")
	fmt.Printf("  ranks=%d workers=%d timesteps=%d block=%d MiB\n",
		cfg.Ranks, cfg.Workers, cfg.Timesteps, cfg.BlockBytes>>20)
	fmt.Println()
	fmt.Printf("simulation compute  : %7.3f s/iteration\n", res.SimStepMean)
	fmt.Printf("coupling (scatter)  : %7.3f s/iteration  (%.0f MiB/s per process)\n",
		res.CommMean, res.SimBandwidthMiBps())
	fmt.Printf("analytics duration  : %7.3f s  (includes waiting for simulation data)\n",
		res.AnalyticsTime)
	fmt.Println()
	fmt.Println("incremental PCA results (computed on the real simulation data):")
	fmt.Printf("  singular values     : %v\n", res.SingularValues)
	fmt.Printf("  explained variance  : %v\n", res.ExplainedVariance)
	k, f := res.Components.Dim(0), res.Components.Dim(1)
	fmt.Printf("  components          : %d × %d matrix; first row starts [%.4f %.4f %.4f ...]\n",
		k, f, res.Components.At(0, 0), res.Components.At(0, 1), res.Components.At(0, 2))
	fmt.Println()
	fmt.Printf("scheduler traffic   : %d external tasks, %d graphs, %d queue ops, %d heartbeats\n",
		res.Metrics.Counter("dask/external_created"), res.Metrics.Counter("dask/graphs_submitted"),
		res.Metrics.Counter("dask/queue_ops"), res.Metrics.Counter("dask/heartbeats"))
}
