package harness_test

import (
	"fmt"

	"deisago/internal/chaos"
	"deisago/internal/harness"
	"deisago/internal/ndarray"
)

// Example_heat2dIPCA runs the paper's end-to-end workflow (Listing 2)
// at a laptop-friendly scale: Heat2D publishes its field through deisa
// bridges every timestep, and an incremental PCA submitted before the
// first timestep fits it as it is produced.
func Example_heat2dIPCA() {
	res, err := harness.Run(harness.Config{
		System:     harness.DEISA3,
		Ranks:      8,
		Workers:    4,
		Timesteps:  10,
		BlockBytes: 32 << 20, // each rank's block models 32 MiB
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("singular values    : %.6g\n", res.SingularValues)
	fmt.Printf("explained variance : %.6g\n", res.ExplainedVariance)
	fmt.Printf("components         : %d × %d, first row starts [%.4f %.4f %.4f ...]\n",
		res.Components.Dim(0), res.Components.Dim(1),
		res.Components.At(0, 0), res.Components.At(0, 1), res.Components.At(0, 2))
	fmt.Printf("scheduler traffic  : %d external tasks, %d graphs, %d queue ops, %d heartbeats\n",
		res.Metrics.Counter("dask/external_created"), res.Metrics.Counter("dask/graphs_submitted"),
		res.Metrics.Counter("dask/queue_ops"), res.Metrics.Counter("dask/heartbeats"))
	// Output:
	// singular values    : [2243.41 223.189]
	// explained variance : [7876.22 77.9549]
	// components         : 2 × 16, first row starts [0.0000 0.0052 0.0197 ...]
	// scheduler traffic  : 80 external tasks, 1 graphs, 0 queue ops, 0 heartbeats
}

// Example_posthocVsInTransit runs the paper's central comparison on one
// configuration: the same Heat2D + IPCA workflow once post hoc (chunked
// files on the parallel file system, analysed afterwards) and once in
// transit through external tasks.
func Example_posthocVsInTransit() {
	run := func(sys harness.System) *harness.Result {
		res, err := harness.Run(harness.Config{
			System: sys, Ranks: 16, Workers: 8, Timesteps: 10, BlockBytes: 128 << 20, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		return res
	}
	post, intr := run(harness.PostHocNewIPCA), run(harness.DEISA3)

	fmt.Println("in transit costs fewer core·hours on coupling:",
		intr.SimCommCostCoreHours() < post.SimCommCostCoreHours())
	fmt.Println("in transit finishes the analytics sooner:", intr.AnalyticsTime < post.AnalyticsTime)
	fmt.Println("bit-identical PCA components:", ndarray.Equal(post.Components, intr.Components))
	// Output:
	// in transit costs fewer core·hours on coupling: true
	// in transit finishes the analytics sooner: true
	// bit-identical PCA components: true
}

// Example_multitenant shares one platform between three weighted
// Heat2D + IPCA jobs, each in its own tenant namespace. It runs the mix,
// each job alone and the mix with one tenant cancelled mid-run: each
// tenant's analytics fingerprint depends only on its own job spec.
func Example_multitenant() {
	jobs := []harness.JobSpec{
		{Name: "climate", Weight: 1, Ranks: 2, Timesteps: 4, BlockBytes: 1 << 20},
		{Name: "fusion", Weight: 2, Ranks: 2, Timesteps: 4, BlockBytes: 1 << 20},
		{Name: "urgent", Weight: 8, Ranks: 1, Timesteps: 3, BlockBytes: 1 << 20},
	}
	run := func(plan *chaos.Plan, specs ...harness.JobSpec) *harness.Result {
		cfg := harness.Config{System: harness.DEISA3, Workers: 3, Seed: 7, ChaosPlan: plan}
		res, err := harness.Run(cfg, specs...)
		if err != nil {
			panic(err)
		}
		return res
	}
	show := func(label string, res *harness.Result) {
		fmt.Printf("--- %s\n", label)
		for _, j := range res.Jobs {
			killed := ""
			if j.Killed {
				killed = fmt.Sprintf("  [killed @%d: %d blocks filtered]", j.KilledStep, j.BlocksSkipped)
			}
			fmt.Printf("%-8s w=%g  sent=%2d  fp=%s%s\n", j.Name, j.Weight, j.BlocksSent, j.Fingerprint()[:16], killed)
		}
	}
	plan, err := chaos.ParsePlan("killjob:fusion@2")
	if err != nil {
		panic(err)
	}
	mixed := run(nil, jobs...)
	show("mixed", mixed)
	killed := run(plan, jobs...)
	show("killjob:fusion@2", killed)

	same, survivors := true, true
	for i, j := range mixed.Jobs { // in JobSpec order
		alone := run(nil, jobs[i])
		same = same && alone.Jobs[0].Fingerprint() == j.Fingerprint()
		if j.Name != "fusion" { // the cancelled tenant legitimately differs
			survivors = survivors && killed.Job(j.Name).Fingerprint() == j.Fingerprint()
		}
	}
	fmt.Println("alone == mixed:", same)
	fmt.Println("killjob survivors unchanged:", survivors)
	// Output:
	// --- mixed
	// climate  w=1  sent= 8  fp=9cf33dd277ad52c1
	// fusion   w=2  sent= 8  fp=1626e6df96922432
	// urgent   w=8  sent= 3  fp=e436dab22d6d6a45
	// --- killjob:fusion@2
	// climate  w=1  sent= 8  fp=9cf33dd277ad52c1
	// fusion   w=2  sent= 4  fp=c352dd45a7811a86  [killed @2: 4 blocks filtered]
	// urgent   w=8  sent= 3  fp=e436dab22d6d6a45
	// alone == mixed: true
	// killjob survivors unchanged: true
}
