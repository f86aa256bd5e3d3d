// Command experiments regenerates the paper's tables and figures on the
// simulated platform and runs single workflows. The figures (2–5),
// ablations and summaries selected in one invocation are views of one
// run set; -all selects every figure, -quick uses a reduced scale. A
// non-empty -system runs one workflow configuration and prints its
// measurements.
//
// Usage:
//
//	experiments -all            # every figure at paper scale
//	experiments -fig 2a         # one figure
//	experiments -quick -fig 2b  # reduced scale (fast smoke run)
//	experiments -headline       # the paper's ×7 / ×3 / ×18 ratios
//	experiments -csv            # emit CSV instead of aligned tables
//	experiments -system deisa3 -ranks 16 -workers 8 -steps 10 -block-mib 128
//	experiments -system posthoc-new -ranks 64 -workers 32 -metrics-out m.json
//
// Systems: posthoc-old, posthoc-new, deisa1, deisa2, deisa3.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"deisago/internal/chaos"
	"deisago/internal/dask"
	"deisago/internal/harness"
	"deisago/internal/metrics"
)

// errUsage reports a command line that does not parse or selects
// nothing to run.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and executes every selected mode, writing results to
// stdout and progress lines to standard error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		all      = fs.Bool("all", false, "run every figure")
		fig      = fs.String("fig", "", "figure to run: 2a, 2b, 3a, 3b, 4a, 4b, 5, meta")
		ablation = fs.String("ablation", "", "ablation to run: heartbeat, metadata, contract, placement, fuse, all")
		headline = fs.Bool("headline", false, "compute the headline ratios")
		quick    = fs.Bool("quick", false, "reduced scale (fast)")
		csv      = fs.Bool("csv", false, "CSV output for tables")
		svgDir   = fs.String("svg", "", "also write each figure as an SVG chart into this directory")
		parallel = fs.Int("parallel", 0, "run up to this many independent simulations concurrently per invocation (0 = GOMAXPROCS, 1 = serial); outputs are byte-identical for any value")

		system   = fs.String("system", "", "run one workflow: posthoc-old|posthoc-new|deisa1|deisa2|deisa3")
		ranks    = fs.Int("ranks", 4, "MPI processes (simulation side) for -system and the chaos scenario")
		workers  = fs.Int("workers", 4, "Dask workers (analytics side) for -system and the chaos scenario")
		steps    = fs.Int("steps", 10, "timesteps for -system")
		blockMiB = fs.Int64("block-mib", 128, "modelled block size per process per step (MiB) for -system")
		seed     = fs.Int64("seed", 1, "allocation/jitter seed for -system (a 'run' in the paper's sense)")
		perRank  = fs.Bool("per-rank", false, "with -system, print per-rank communication statistics (Figure 5 style)")
		trace    = fs.String("trace", "", "with -system, write a Chrome trace-event JSON of the analytics tasks to this file")
		workMem  = fs.Int64("worker-mem", 0, "per-worker managed-memory limit (MiB) for -system, -jobs and the chaos scenario; enables LRU spill-to-PFS, scatter backpressure, and a random memlimit squeeze in seeded plans (0 = unlimited)")
		metrics  = fs.String("metrics-out", "", "with -system, write the run's metrics snapshot to this file (.csv extension selects CSV, anything else JSON)")

		chaosSeed = fs.Int64("chaos-seed", 0, "run the Fig-2b pipeline under a seeded random fault plan (kills, link degradation, dropped publishes) and verify results against the fault-free run")
		chaosPlan = fs.String("chaos-plan", "", "explicit fault plan DSL, e.g. 'kill:1@0/3;degrade:2-5:4@0.5-inf;drop:0/2:2;delay:1/4:0.25' (overrides -chaos-seed); with -jobs, the plan of the -jobs run, e.g. 'killjob:job1@2' (no worker kills)")

		jobs          = fs.Int("jobs", 0, "run this many concurrent pipelines as tenants of one shared platform and print per-tenant fingerprints and fairness")
		tenantWeights = fs.String("tenant-weights", "", "comma-separated fair-share weights for -jobs, cycled over the jobs (e.g. '1,2,8'; default all 1)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	opts := harness.DefaultOptions()
	if *quick {
		opts = harness.QuickOptions()
	}
	if *parallel < 0 {
		return fmt.Errorf("%w: -parallel %d is negative", errUsage, *parallel)
	}
	if *jobs < 0 {
		return fmt.Errorf("%w: -jobs %d is negative", errUsage, *jobs)
	}
	if *jobs > 0 && *chaosSeed != 0 {
		return fmt.Errorf("%w: -chaos-seed draws worker kills, which a -jobs run refuses; give the -jobs run a plan with -chaos-plan", errUsage)
	}
	if *jobs == 0 && *tenantWeights != "" {
		return fmt.Errorf("%w: -tenant-weights weights the tenants of a -jobs run; pass -jobs too", errUsage)
	}
	opts.Parallel = *parallel
	if !*all && *fig == "" && !*headline && *ablation == "" && *chaosSeed == 0 && *chaosPlan == "" &&
		*system == "" && *jobs == 0 {
		fs.Usage()
		return fmt.Errorf("%w: pass -system, -fig, -headline, -ablation, -all, -chaos-seed, -chaos-plan or -jobs", errUsage)
	}

	// Every figure, ablation and summary selected is one view of a
	// single run set, resolved before anything runs.
	var names []string
	add := func(ns ...string) {
		for _, n := range ns {
			if n = strings.ToLower(n); !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	}
	if *fig != "" {
		add(*fig)
	}
	switch *ablation {
	case "":
	case "all":
		add("ablation-heartbeat", "ablation-metadata", "ablation-contract", "ablation-placement", "ablation-fuse")
	default:
		add("ablation-" + *ablation)
	}
	if *all {
		add("2a", "2b", "3a", "3b", "4a", "4b", "5", "meta", "headline")
	}
	if *headline {
		add("headline")
	}
	sweep, err := harness.NewSweep(opts, names...)
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *jobs > 0 {
		if err := runTenants(stdout, opts, *jobs, *tenantWeights, *chaosPlan, *workMem<<20, *quick); err != nil {
			return err
		}
	}

	if *system != "" {
		sys, err := parseSystem(*system)
		if err != nil {
			return err
		}
		cfg := harness.Config{
			System:            sys,
			Ranks:             *ranks,
			Workers:           *workers,
			Timesteps:         *steps,
			BlockBytes:        *blockMiB << 20,
			WorkerMemoryLimit: *workMem << 20,
			Seed:              *seed,
			EnableTrace:       *trace != "",
		}
		if err := runSingle(stdout, cfg, *trace, *metrics, *perRank); err != nil {
			return err
		}
	}

	if *jobs == 0 && (*chaosSeed != 0 || *chaosPlan != "") {
		cfg := harness.ChaosScenarioConfig(opts, *ranks, *workers)
		cfg.WorkerMemoryLimit = *workMem << 20
		var plan *chaos.Plan
		var err error
		if *chaosPlan != "" {
			plan, err = chaos.ParsePlan(*chaosPlan)
		} else {
			plan, err = chaos.NewRandomPlan(*chaosSeed, harness.ChaosSpec(cfg))
		}
		if err != nil {
			return err
		}
		start := time.Now()
		chaosPar := opts.Parallel
		if chaosPar == 0 {
			chaosPar = 2
		}
		report, err := harness.RunChaosParallel(cfg, plan, chaosPar)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, report.Format())
		fmt.Fprintf(os.Stderr, "[chaos done in %v]\n", time.Since(start).Round(time.Millisecond))
		if !report.Identical {
			return errors.New("chaos run diverged from the fault-free run")
		}
	}

	if len(names) == 0 {
		return nil
	}
	start := time.Now()
	outs, err := sweep.Execute()
	if err != nil {
		return err
	}
	// A table prints as text or CSV; tables and Figure 5 also render
	// under -svg.
	for i, out := range outs {
		text, svg := out.Format(), ""
		switch v := out.(type) {
		case *harness.Table:
			if *csv {
				text = v.CSV()
			}
			svg = v.RenderSVG(900, 420)
		case harness.Fig5Panels:
			svg = harness.RenderFig5SVG(v, 960, 640)
		}
		fmt.Fprintln(stdout, text)
		if *svgDir != "" && svg != "" {
			path := fmt.Sprintf("%s/fig%s.svg", *svgDir, names[i])
			fmt.Fprintf(os.Stderr, "[svg -> %s]\n", path)
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(os.Stderr, "[%s: %d simulations in %v]\n", strings.Join(names, " "), sweep.Runs(),
		time.Since(start).Round(time.Millisecond))
	return nil
}

// runSingle executes one workflow configuration, prints its
// measurements and writes the optional trace and metrics files.
func runSingle(stdout io.Writer, cfg harness.Config, trace, metricsOut string, perRank bool) error {
	res, err := harness.Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "system      : %s\n", cfg.System)
	fmt.Fprintf(stdout, "scale       : %d ranks (%d nodes), %d workers (%d nodes), %d steps, %d MiB/block\n",
		cfg.Ranks, res.SimNodes, cfg.Workers, res.AnalyticsNodes, cfg.Timesteps, cfg.BlockBytes>>20)
	fmt.Fprintf(stdout, "simulation  : %.3f s/iter compute, makespan %.2f s\n", res.SimStepMean, res.SimMakespan)
	fmt.Fprintf(stdout, "coupling    : %.3f ± %.3f s/iter  (%.0f MiB/s per process)\n",
		res.CommMean, res.CommStd, res.SimBandwidthMiBps())
	fmt.Fprintf(stdout, "analytics   : %.2f s  (%.0f MiB/s), singular values %v\n",
		res.AnalyticsTime, res.AnalyticsBandwidthMiBps(), res.SingularValues)
	fmt.Fprintf(stdout, "cost        : coupling %.3f core·h, analytics %.3f core·h\n",
		res.SimCommCostCoreHours(), res.AnalyticsCostCoreHours())
	c := func(name string) int64 { return res.Metrics.Counter("dask/" + name) }
	fmt.Fprintf(stdout, "scheduler   : %d msgs total — %d graph(s), %d update-data, %d metadata, %d queue ops, %d heartbeats, %d external tasks\n",
		c("total_scheduler_msgs"), c("graphs_submitted"), c("update_data_msgs"), c("metadata_msgs"),
		c("queue_ops"), c("heartbeats"), c("external_created"))

	if trace != "" {
		// Gauge series ride along as counter tracks under the task stream.
		if err := writeFile(trace, func(w io.Writer) error {
			return dask.WriteChromeTrace(w, res.Trace, res.Metrics)
		}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace       : %d task spans -> %s (open in chrome://tracing)\n", len(res.Trace), trace)
	}

	if metricsOut != "" {
		// The file extension picks the format: CSV for .csv, JSON otherwise.
		write := res.Metrics.WriteJSON
		if strings.HasSuffix(metricsOut, ".csv") {
			write = res.Metrics.WriteCSV
		}
		if err := writeFile(metricsOut, write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics     : %d counters, %d gauges, %d histograms -> %s\n",
			len(res.Metrics.Counters), len(res.Metrics.Gauges), len(res.Metrics.Histograms), metricsOut)
	}

	if perRank {
		fmt.Fprintln(stdout, "\nper-rank communication time (mean ± std over iterations):")
		for r := range res.PerRankCommMean {
			bar := strings.Repeat("#", int(res.PerRankCommMean[r]/res.CommMean*20))
			fmt.Fprintf(stdout, "  rank %3d: %7.3f ± %6.3f s  %s\n",
				r, res.PerRankCommMean[r], res.PerRankCommStd[r], bar)
		}
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func parseSystem(s string) (harness.System, error) {
	switch strings.ToLower(s) {
	case "posthoc-old", "posthoc", "dask-old":
		return harness.PostHocOldIPCA, nil
	case "posthoc-new", "dask", "dask-new":
		return harness.PostHocNewIPCA, nil
	case "deisa1":
		return harness.DEISA1, nil
	case "deisa2":
		return harness.DEISA2, nil
	case "deisa3", "deisa":
		return harness.DEISA3, nil
	}
	return 0, fmt.Errorf("unknown system %q (want posthoc-old|posthoc-new|deisa1|deisa2|deisa3)", s)
}

// runTenants runs n concurrent tenant pipelines on one shared platform
// under the plan planDSL ("" = fault-free) and prints the per-tenant
// outcome table: fingerprints are reproducible for a fixed seed
// regardless of how the jobs' goroutines interleave, so two invocations
// must print identical digests.
func runTenants(stdout io.Writer, opts harness.Options, n int, weightsCSV, planDSL string,
	workerMem int64, quick bool) error {
	start := time.Now()
	var weights []float64
	if weightsCSV != "" {
		for _, f := range strings.Split(weightsCSV, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return fmt.Errorf("%w: -tenant-weights %q: %v", errUsage, weightsCSV, err)
			}
			weights = append(weights, w)
		}
	}
	ranks, steps := 4, opts.Timesteps
	if quick {
		ranks, steps = 2, 4
	}
	specs := make([]harness.JobSpec, n)
	for i := range specs {
		w := 1.0
		if len(weights) > 0 {
			w = weights[i%len(weights)]
		}
		specs[i] = harness.JobSpec{
			Name:       fmt.Sprintf("job%d", i),
			Weight:     w,
			Ranks:      ranks,
			Timesteps:  steps,
			BlockBytes: opts.BlockBytes,
		}
	}
	cfg := harness.Config{
		System:            harness.DEISA3,
		Workers:           2 * ranks,
		Seed:              7,
		Model:             opts.Model,
		WorkerMemoryLimit: workerMem,
		EnableAudit:       true,
	}
	if planDSL != "" {
		plan, err := chaos.ParsePlan(planDSL)
		if err != nil {
			return err
		}
		cfg.ChaosPlan = plan
	}
	if err := cfg.Validate(specs...); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	res, err := harness.Run(cfg, specs...)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Multi-tenant run: %d jobs, %d workers, seed %d\n", n, cfg.Workers, cfg.Seed)
	fmt.Fprintf(stdout, "%-8s %6s %6s %6s %6s %8s %7s %10s %8s  %s\n",
		"tenant", "weight", "ranks", "steps", "sent", "skipped", "killed", "analytics", "share", "fingerprint")
	for i, j := range res.Jobs {
		killed := "-"
		if j.Killed {
			killed = fmt.Sprintf("@%d", j.KilledStep)
		}
		fmt.Fprintf(stdout, "%-8s %6g %6d %6d %6d %8d %7s %9.4fs %7.1f%%  %s\n",
			j.Name, j.Weight, specs[i].Ranks, specs[i].Timesteps,
			j.BlocksSent, j.BlocksSkipped, killed, j.AnalyticsTime,
			100*res.Metrics.Gauge(metrics.ID("scheduler", "tenant_share", metrics.L("tenant", j.Name))),
			j.Fingerprint()[:16])
	}
	fmt.Fprintf(stdout, "jain=%.4f makespan=%.4fs\n", res.Jain, res.Makespan)
	for _, e := range res.ChaosLog {
		fmt.Fprintf(stdout, "fault: %s\n", e.String())
	}
	fmt.Fprintf(os.Stderr, "[jobs done in %v]\n", time.Since(start).Round(time.Millisecond))
	return nil
}
