// Command deisa-run executes one end-to-end workflow configuration and
// prints its measurements — the single-run counterpart of the experiment
// sweeps in cmd/experiments.
//
// Usage:
//
//	deisa-run -system deisa3 -ranks 16 -workers 8 -steps 10 -block-mib 128
//	deisa-run -system posthoc-new -ranks 64 -workers 32
//
// Systems: posthoc-old, posthoc-new, deisa1, deisa2, deisa3.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"deisago/internal/dask"
	"deisago/internal/harness"
)

func main() {
	var (
		system   = flag.String("system", "deisa3", "workflow system: posthoc-old|posthoc-new|deisa1|deisa2|deisa3")
		ranks    = flag.Int("ranks", 8, "MPI processes (simulation side)")
		workers  = flag.Int("workers", 4, "Dask workers (analytics side)")
		steps    = flag.Int("steps", 10, "timesteps")
		blockMiB = flag.Int64("block-mib", 128, "modelled block size per process per step (MiB)")
		workMem  = flag.Int64("worker-mem", 0, "per-worker managed-memory limit (MiB); blocks over the limit spill to the PFS in virtual time, 0 = unlimited")
		seed     = flag.Int64("seed", 1, "allocation/jitter seed (a 'run' in the paper's sense)")
		perRank  = flag.Bool("per-rank", false, "print per-rank communication statistics (Figure 5 style)")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON of the analytics tasks to this file")
		metrics  = flag.String("metrics-out", "", "write the run's metrics snapshot to this file (.csv extension selects CSV, anything else JSON)")
	)
	flag.Parse()

	sys, err := parseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res, err := harness.Run(harness.Config{
		System:            sys,
		Ranks:             *ranks,
		Workers:           *workers,
		Timesteps:         *steps,
		BlockBytes:        *blockMiB << 20,
		WorkerMemoryLimit: *workMem << 20,
		Seed:              *seed,
		EnableTrace:       *trace != "",
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	fmt.Printf("system      : %s\n", sys)
	fmt.Printf("scale       : %d ranks (%d nodes), %d workers (%d nodes), %d steps, %d MiB/block\n",
		*ranks, res.SimNodes, *workers, res.AnalyticsNodes, *steps, *blockMiB)
	fmt.Printf("simulation  : %.3f s/iter compute, makespan %.2f s\n", res.SimStepMean, res.SimMakespan)
	fmt.Printf("coupling    : %.3f ± %.3f s/iter  (%.0f MiB/s per process)\n",
		res.CommMean, res.CommStd, res.SimBandwidthMiBps())
	fmt.Printf("analytics   : %.2f s  (%.0f MiB/s), singular values %v\n",
		res.AnalyticsTime, res.AnalyticsBandwidthMiBps(), res.SingularValues)
	fmt.Printf("cost        : coupling %.3f core·h, analytics %.3f core·h\n",
		res.SimCommCostCoreHours(), res.AnalyticsCostCoreHours())
	c := func(name string) int64 { return res.Metrics.Counter("dask/" + name) }
	fmt.Printf("scheduler   : %d msgs total — %d graph(s), %d update-data, %d metadata, %d queue ops, %d heartbeats, %d external tasks\n",
		c("total_scheduler_msgs"), c("graphs_submitted"), c("update_data_msgs"), c("metadata_msgs"),
		c("queue_ops"), c("heartbeats"), c("external_created"))

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		// Gauge series ride along as counter tracks under the task stream.
		if err := dask.WriteChromeTraceWithMetrics(f, res.Trace, res.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("trace       : %d task spans -> %s (open in chrome://tracing)\n", len(res.Trace), *trace)
	}

	if *metrics != "" {
		if err := writeMetrics(*metrics, res); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("metrics     : %d counters, %d gauges, %d histograms -> %s\n",
			len(res.Metrics.Counters), len(res.Metrics.Gauges), len(res.Metrics.Histograms), *metrics)
	}

	if *perRank {
		fmt.Println("\nper-rank communication time (mean ± std over iterations):")
		for r := range res.PerRankCommMean {
			bar := strings.Repeat("#", int(res.PerRankCommMean[r]/res.CommMean*20))
			fmt.Printf("  rank %3d: %7.3f ± %6.3f s  %s\n",
				r, res.PerRankCommMean[r], res.PerRankCommStd[r], bar)
		}
	}
}

// writeMetrics exports the run's metrics snapshot; the file extension
// picks the format (CSV for .csv, JSON otherwise).
func writeMetrics(path string, res *harness.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return res.Metrics.WriteCSV(f)
	}
	return res.Metrics.WriteJSON(f)
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
