package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"deisago/internal/chaos"
	"deisago/internal/cluster"
	"deisago/internal/core"
	"deisago/internal/dask"
	"deisago/internal/h5"
	"deisago/internal/metrics"
	"deisago/internal/mpi"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/pfs"
	"deisago/internal/sim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// ArrayName is the deisa virtual array published by the Heat2D workflow.
const ArrayName = "G_temp"

// Config describes one experiment run. Ranks, Timesteps and BlockBytes
// size the one job of a run without jobs; a Run with jobs sizes each job
// in its JobSpec and leaves them zero.
type Config struct {
	System    System
	Ranks     int
	Workers   int
	Timesteps int
	// BlockBytes is the modelled per-rank data size per timestep.
	BlockBytes int64
	// Seed controls the node allocation and link jitter (a "run" in the
	// paper's sense: different submissions may get different
	// allocations).
	Seed int64
	// RealLocalX/Y size the actual in-memory block; defaults 16×8.
	RealLocalX, RealLocalY int
	Model                  Model

	// HeartbeatOverride, when positive, replaces the system's default
	// bridge heartbeat interval (ablations).
	HeartbeatOverride float64
	// ScatteredPlacement disables the time-invariant worker preselection
	// and spreads a block's timeline across workers (placement ablation).
	ScatteredPlacement bool
	// SelectFraction, in (0,1), makes the analytics contract select only
	// that fraction of the spatial domain (contract ablation); 0 or 1
	// selects everything. In-transit systems only.
	SelectFraction float64
	// FuseGraphs applies taskgraph.Fuse to the analytics graph before
	// submission (dask.optimization.fuse; new-IPCA systems only).
	FuseGraphs bool
	// EnableTrace records task-execution spans (Result.Trace).
	EnableTrace bool
	// WorkerMemoryLimit, when positive, caps each Dask worker's managed
	// memory: blocks beyond the limit spill to the parallel file system
	// (LRU, virtual-time I/O costs) and producers scattering into a
	// worker above its high watermark block in virtual time. 0 keeps
	// the historical unlimited workers.
	WorkerMemoryLimit int64
	// ChaosPlan, when non-nil, runs the scenario under deterministic
	// fault injection: the scheduler invariant auditor is enabled, the
	// plan's link faults are installed on the fabric, a chaos controller
	// intercepts every bridge publish, and blocks lost to worker kills
	// are republished once the simulation loop finishes. External-mode
	// (DEISA2/3) in-transit systems only: Run rejects a plan on any
	// other system, and a killjob clause, which its one unnamed job
	// cannot honour. In a Run with jobs, killjob clauses cancel the named
	// tenant's analytics from the given step and worker kills are
	// refused: a kill trigger is a (rank, step) coordinate every job
	// shares, so host order would pick which job fires it, and each job's
	// republish barrier runs after its own rank loop, so a kill could land
	// after another job's barrier has passed.
	ChaosPlan *chaos.Plan
	// TieBreak, when non-nil, redirects every benign scheduling tie in
	// the cluster and the bridges — ready-pop order, worker choice,
	// spill victim, failover target — so the schedule-space explorer
	// (package simtest) can permute legal schedules. nil keeps the
	// production rules.
	TieBreak dask.TieBreaker
	// EnableAudit switches the scheduler invariant auditor on even for
	// fault-free runs (ChaosPlan enables it regardless) and exposes the
	// transition log on the Result for offline replay.
	EnableAudit bool
}

// defaults fills c's zero fields and returns jobs with their zero
// weights and timesteps filled, in a copy. Without jobs, c's own
// Timesteps defaults instead.
func (c *Config) defaults(jobs []JobSpec) []JobSpec {
	if c.RealLocalX == 0 {
		c.RealLocalX = 16
	}
	if c.RealLocalY == 0 {
		c.RealLocalY = 8
	}
	if c.Model.CoresPerNode == 0 {
		c.Model = DefaultModel()
	}
	if len(jobs) == 0 {
		if c.Timesteps == 0 {
			c.Timesteps = 10
		}
		return nil
	}
	jobs = slices.Clone(jobs)
	for i := range jobs {
		if jobs[i].Weight == 0 {
			jobs[i].Weight = 1
		}
		if jobs[i].Timesteps == 0 {
			jobs[i].Timesteps = 10
		}
	}
	return jobs
}

// Result holds every measurement of one run. A Run with jobs reports
// each job in Jobs and keeps only the run-wide fields (Makespan, Jain,
// Metrics, Trace, ChaosLog, the audit log) at the top level; a run
// without jobs reports its one job at the top level, with the run-wide
// fields beside it.
type Result struct {
	Config Config
	// Name is the job's tenant namespace ("" for the one job of Run, on
	// the scheduler's default tenant) and Weight its fair-share weight.
	Name   string
	Weight float64
	// Killed/KilledStep report a killjob cancellation: the analytics
	// consumed only timesteps before KilledStep.
	Killed     bool
	KilledStep int

	// SimStepMean is the per-iteration simulation (compute + halo) time,
	// averaged over ranks and iterations.
	SimStepMean float64
	// CommMean/CommStd aggregate the per-iteration coupling cost: the
	// scatter time for in-transit systems, the file write time post hoc.
	CommMean, CommStd float64
	// PerRankCommMean/Std are per-rank statistics over iterations
	// (Figure 5).
	PerRankCommMean, PerRankCommStd []float64
	// SimMakespan is the simulation-side end time (max over ranks).
	SimMakespan float64
	// AnalyticsTime is the analytics-side duration, including waiting
	// for data (in transit) or reading from storage (post hoc).
	AnalyticsTime float64

	// Metrics is the run's full observability snapshot: every counter,
	// gauge series and histogram the instrumented components recorded
	// (scheduler, workers, bridges, fabric links, PFS), including the
	// dask/* message totals behind §2.1's count argument. The counter
	// subset is deterministic for a fixed Config (see metrics package
	// doc); gauge/histogram values carry virtual timestamps and may
	// vary across runs of the same seed. Run-wide: nil on Jobs' entries.
	Metrics *metrics.Snapshot
	// Trace holds task-execution spans when Config.EnableTrace is set,
	// of every job on the platform. Run-wide: nil on Jobs' entries.
	Trace []dask.TraceEvent
	// ChaosLog lists the faults executed when Config.ChaosPlan is set;
	// it is a pure function of the plan and scenario (no timing), so the
	// same seed yields an identical log on every run. Run-wide.
	ChaosLog []chaos.LogEntry
	// BlocksSent/BlocksSkipped aggregate bridge-side contract filtering.
	BlocksSent, BlocksSkipped int64
	// AuditLog is the scheduler's transition log when the invariant
	// auditor ran (Config.EnableAudit or ChaosPlan): the interleaved
	// transitions of every job, for offline reference-model replay.
	// AuditTruncated counts older entries the bounded log discarded.
	// Run-wide.
	AuditLog       []dask.Transition
	AuditTruncated int64

	// Jobs holds one Result per job of a Run with jobs, in JobSpec order
	// (nil without jobs).
	Jobs []Result
	// Makespan is the run's virtual end: the latest simulation or
	// analytics end of any job. Run-wide.
	Makespan float64
	// Jain is Jain's fairness index over weight-normalized service: the
	// final value of the scheduler/fairness_jain gauge (0 without
	// tenants). Per-tenant service (scheduler/tenant_pops,
	// scheduler/tenant_share) is in Metrics. Run-wide.
	Jain float64

	// Real analytics outputs, for cross-system correctness checks.
	Components        *ndarray.Array
	SingularValues    []float64
	ExplainedVariance []float64

	SimNodes, AnalyticsNodes int
}

// blockMiB returns the modelled block size in MiB.
func (r *Result) blockMiB() float64 { return float64(r.Config.BlockBytes) / (1 << 20) }

// SimBandwidthMiBps is the per-process coupling bandwidth (Figure 3a).
func (r *Result) SimBandwidthMiBps() float64 {
	if r.CommMean <= 0 {
		return 0
	}
	return r.blockMiB() / r.CommMean
}

// AnalyticsBandwidthMiBps is total data over analytics time (Figure 3b).
func (r *Result) AnalyticsBandwidthMiBps() float64 {
	if r.AnalyticsTime <= 0 {
		return 0
	}
	total := r.blockMiB() * float64(r.Config.Ranks*r.Config.Timesteps)
	return total / r.AnalyticsTime
}

// SimCommCostCoreHours is the core·hour cost of the coupling (write or
// scatter) over the whole run on the simulation nodes (Figure 4a).
func (r *Result) SimCommCostCoreHours() float64 {
	return r.CommMean * float64(r.Config.Timesteps) *
		float64(r.SimNodes*r.Config.Model.CoresPerNode) / 3600
}

// SimComputeCostCoreHours is the pure-simulation cost over the run.
func (r *Result) SimComputeCostCoreHours() float64 {
	return r.SimStepMean * float64(r.Config.Timesteps) *
		float64(r.SimNodes*r.Config.Model.CoresPerNode) / 3600
}

// AnalyticsCostCoreHours is the analytics cost over the run (Figure 4b).
func (r *Result) AnalyticsCostCoreHours() float64 {
	return r.AnalyticsTime * float64(r.AnalyticsNodes*r.Config.Model.CoresPerNode) / 3600
}

// WriteAnalytics writes the run's analytics bits to w: the shape and the
// values of the components, then the singular values and the explained
// variance, each as a little-endian 64-bit word. Every check of "the same
// analytics" reads this one stream: Fingerprint, ChaosReport.Identical
// and the schedule explorer's digest. w is a hash or a buffer, whose
// writes do not fail.
func (r *Result) WriteAnalytics(w io.Writer) {
	var b []byte
	words := func(vs []float64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	if r.Components != nil {
		for _, d := range r.Components.Shape() {
			b = binary.LittleEndian.AppendUint64(b, uint64(d))
		}
		words(r.Components.Data())
	}
	words(r.SingularValues)
	words(r.ExplainedVariance)
	w.Write(b)
}

// Fingerprint digests the job's name, kill step, analytics bits and
// bridge counters. It is a pure function of the job's configuration and
// kill step: other tenants on the platform and the host interleaving of
// their goroutines do not change it.
func (r *Result) Fingerprint() string {
	h := sha256.New()
	kill := int64(-1)
	if r.Killed {
		kill = int64(r.KilledStep)
	}
	io.WriteString(h, r.Name)
	binary.Write(h, binary.LittleEndian, kill)
	r.WriteAnalytics(h)
	binary.Write(h, binary.LittleEndian, [2]int64{r.BlocksSent, r.BlocksSkipped})
	return hex.EncodeToString(h.Sum(nil))
}

// Job returns the named job's result, or nil.
func (r *Result) Job(name string) *Result {
	for i := range r.Jobs {
		if r.Jobs[i].Name == name {
			return &r.Jobs[i]
		}
	}
	return nil
}

// Run executes one configuration end to end. Without jobs it runs one
// unnamed job of cfg's Ranks, Timesteps and BlockBytes on any system; an
// in-transit system runs it as the one job of its own platform (see
// runJobs). With jobs it runs them as tenants of one DEISA3 platform and
// reports each in Result.Jobs.
func Run(cfg Config, jobs ...JobSpec) (*Result, error) {
	jobs, err := prepare(&cfg, jobs)
	if err != nil {
		return nil, err
	}
	if !cfg.System.InTransit() {
		return runPostHoc(cfg)
	}
	if len(jobs) == 0 {
		jobs = []JobSpec{{Ranks: cfg.Ranks, Timesteps: cfg.Timesteps, BlockBytes: cfg.BlockBytes}}
	}
	return runJobs(cfg, jobs)
}

// Validate reports why Run would refuse cfg and jobs, before anything is
// built.
func (c Config) Validate(jobs ...JobSpec) error {
	_, err := prepare(&c, jobs)
	return err
}

// prepare fills cfg's and the jobs' zero fields (see defaults) and
// reports why Run would refuse them.
func prepare(cfg *Config, jobs []JobSpec) ([]JobSpec, error) {
	if len(jobs) > 0 && (cfg.Ranks != 0 || cfg.Timesteps != 0 || cfg.BlockBytes != 0) {
		return nil, fmt.Errorf("harness: a run with jobs sizes each job in its JobSpec; ranks, timesteps and block size must be zero (got %d, %d, %d)",
			cfg.Ranks, cfg.Timesteps, cfg.BlockBytes)
	}
	jobs = cfg.defaults(jobs)
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("harness: workers must be positive")
	}
	if cfg.ChaosPlan != nil && cfg.System < DEISA2 {
		return nil, fmt.Errorf("harness: chaos injection needs an external-mode system (DEISA2 or DEISA3), got %s", cfg.System)
	}
	if len(jobs) == 0 {
		if cfg.Ranks <= 0 || cfg.Timesteps <= 0 || cfg.BlockBytes <= 0 {
			return nil, fmt.Errorf("harness: ranks, timesteps and block size must be positive")
		}
		// The one job of a run without jobs has no name, so no killjob
		// can target it.
		return nil, checkPlan(cfg.ChaosPlan, nil)
	}
	if cfg.System != DEISA3 {
		return nil, fmt.Errorf("harness: a run with jobs runs on DEISA3, got %s", cfg.System)
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if err := dask.ValidateTenant(j.Name, j.Weight); err != nil {
			return nil, err
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("harness: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Ranks <= 0 || j.Timesteps <= 0 || j.BlockBytes <= 0 {
			return nil, fmt.Errorf("harness: job %q needs positive ranks, timesteps and block size", j.Name)
		}
	}
	return jobs, checkPlan(cfg.ChaosPlan, jobs)
}

// platform is one run's deployment: the allocated machine, the placement
// of scheduler, workers, client and ranks on it, and the metrics registry
// everything on it reports to. A single-job run builds one for its own
// ranks; a multi-job run builds one for all tenants' ranks together.
type platform struct {
	model   Model
	machine *cluster.Machine
	place   cluster.Placement
	reg     *metrics.Registry
}

func newPlatform(m Model, workers, ranks int, seed int64) *platform {
	layout := cluster.Layout{
		Workers:        workers,
		WorkersPerNode: m.WorkersPerNode,
		Ranks:          ranks,
		RanksPerNode:   m.RanksPerNode,
	}
	nodes := m.MachineNodes
	if need := layout.NodesNeeded(); nodes < need {
		nodes = need
	}
	net := m.Net
	net.Seed = seed
	machine := cluster.NewMachine(net, nodes, m.CoresPerNode)
	place := machine.Allocate(layout.NodesNeeded(), seed).Place(layout)
	reg := metrics.NewRegistry()
	machine.Fabric().UseMetrics(reg)
	return &platform{model: m, machine: machine, place: place, reg: reg}
}

// newCluster deploys Dask on the platform's scheduler and worker nodes
// with cfg's memory limit, tie-breaking, tracing and auditing (a chaos
// plan turns the auditor on too).
func (p *platform) newCluster(cfg Config) *dask.Cluster {
	d := p.model.Dask
	d.MetadataEntryCost = p.model.MetaEntryCost
	d.WorkerMemoryLimit = cfg.WorkerMemoryLimit
	d.TieBreak = cfg.TieBreak
	d.Metrics = p.reg
	dc := dask.NewCluster(p.machine.Fabric(), d, p.place.SchedulerNode, p.place.WorkerNodes)
	if cfg.EnableTrace {
		dc.EnableTracing()
	}
	if cfg.EnableAudit || cfg.ChaosPlan != nil {
		dc.EnableAudit()
	}
	return dc
}

// env is one job on a platform: its configuration, namespace ("" on
// single-job runs) and rank nodes, the virtual array its ranks publish,
// the Heat2D decomposition and the IPCA task builder.
type env struct {
	*platform
	cfg       Config
	ns        string
	rankNodes []netsim.NodeID
	va        *core.VirtualArray
	pipe      *pipeline
	heatCfg   sim.Config
}

func newEnv(p *platform, cfg Config, ns string, rankNodes []netsim.NodeID) (*env, error) {
	va := &core.VirtualArray{
		Name:      ArrayName,
		Namespace: ns,
		Size:      []int{cfg.Timesteps, cfg.RealLocalX, cfg.RealLocalY * cfg.Ranks},
		Subsize:   []int{1, cfg.RealLocalX, cfg.RealLocalY},
		TimeDim:   0,
	}
	if err := va.Validate(); err != nil {
		return nil, err
	}
	realCells := cfg.RealLocalX * cfg.RealLocalY
	modelCells := cfg.BlockBytes / 8
	heatCfg := sim.Config{
		GlobalX:  cfg.RealLocalX,
		GlobalY:  cfg.RealLocalY * cfg.Ranks,
		ProcX:    1,
		ProcY:    cfg.Ranks,
		Alpha:    0.2,
		CellCost: float64(modelCells) * cfg.Model.CellCost / float64(realCells),
	}
	if err := heatCfg.Validate(); err != nil {
		return nil, err
	}
	return &env{
		platform:  p,
		cfg:       cfg,
		ns:        ns,
		rankNodes: rankNodes,
		va:        va,
		pipe:      newPipeline(cfg, ns),
		heatCfg:   heatCfg,
	}, nil
}

// aggregate fills the measurement and analytics parts of a Result.
func (e *env) aggregate(stepDur, commDur [][]float64, simEnds []float64, a analyticsResult) *Result {
	cfg, m := e.cfg, e.cfg.Model
	res := &Result{
		Config:            cfg,
		Name:              e.ns,
		SimNodes:          (cfg.Ranks + m.RanksPerNode - 1) / m.RanksPerNode,
		AnalyticsNodes:    2 + (cfg.Workers+m.WorkersPerNode-1)/m.WorkersPerNode,
		AnalyticsTime:     a.duration,
		Components:        a.components,
		SingularValues:    a.singularValues,
		ExplainedVariance: a.explainedVariance,
	}
	var steps, comms []float64
	for r := 0; r < cfg.Ranks; r++ {
		steps = append(steps, stepDur[r]...)
		comms = append(comms, commDur[r]...)
		st := vtime.Summarize(commDur[r])
		res.PerRankCommMean = append(res.PerRankCommMean, st.Mean)
		res.PerRankCommStd = append(res.PerRankCommStd, st.Std)
	}
	res.SimStepMean = vtime.Summarize(steps).Mean
	cst := vtime.Summarize(comms)
	res.CommMean, res.CommStd = cst.Mean, cst.Std
	res.SimMakespan = vtime.MaxTime(simEnds...)
	return res
}

// runJob drives one in-transit job on a deployed cluster: its MPI world
// and bridges on the simulation side, its adaptor, contract and analytics
// graphs on the other. The analytics consume the first steps timesteps
// (fewer than cfg.Timesteps when the job is killed). ctrl, when non-nil,
// intercepts every publish; once the rank loop is done, blocks lost to
// worker kills are republished.
func (e *env) runJob(dc *dask.Cluster, ctrl *chaos.Controller, steps int) (*Result, error) {
	cfg := e.cfg
	mode := core.ModeExternal
	if cfg.System == DEISA1 {
		mode = core.ModeDEISA1
	}
	hb := e.model.Heartbeat(cfg.System)
	if cfg.HeartbeatOverride > 0 {
		hb = cfg.HeartbeatOverride
	}
	var place func(va *core.VirtualArray, pos []int, numWorkers int) int
	if cfg.ScatteredPlacement {
		place = func(va *core.VirtualArray, pos []int, numWorkers int) int {
			// Spread each spatial block's timeline across workers.
			return (va.WorkerForBlock(pos, numWorkers) + pos[va.TimeDim]) % numWorkers
		}
	}
	bridges := make([]*core.Bridge, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		bcfg := core.BridgeConfig{
			Rank:              r,
			Cluster:           dc,
			Node:              e.rankNodes[r],
			HeartbeatInterval: hb,
			Mode:              mode,
			ScatterBytes:      cfg.BlockBytes,
			MetaEntries:       cfg.Ranks,
			PlaceWorker:       place,
			TieBreak:          cfg.TieBreak,
			Namespace:         e.ns,
		}
		if ctrl != nil {
			bcfg.Interceptor = ctrl
		}
		bridges[r] = core.NewBridge(bcfg)
	}

	stepDur := newMatrix(cfg.Ranks, cfg.Timesteps)
	commDur := newMatrix(cfg.Ranks, cfg.Timesteps)
	simEnds := make([]float64, cfg.Ranks)
	errs := make(chan error, cfg.Ranks+1)

	var analytics analyticsResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var aerr error
		if cfg.System.NewIPCA() {
			analytics, aerr = runNewIPCAInTransit(e, dc, steps)
		} else {
			analytics, aerr = runOldIPCADeisa1(e, dc)
		}
		if aerr != nil {
			errs <- fmt.Errorf("analytics: %w", aerr)
		}
	}()

	world := mpi.NewWorld(e.machine.Fabric(), e.rankNodes)
	init := sim.HotSpotInitial(e.heatCfg)
	world.Run(0, func(c *mpi.Comm) {
		r := c.Rank()
		h, herr := sim.New(e.heatCfg, c, init)
		if herr != nil {
			errs <- herr
			return
		}
		// The rank talks only to PDI; the deisa plugin drives the bridge
		// (Listing 1).
		sys, serr := newDeisaRankSystem(cfg, r, bridges[r])
		if serr != nil {
			errs <- serr
			return
		}
		end, berr := sys.Event("init", 0)
		if berr != nil {
			errs <- fmt.Errorf("rank %d init: %w", r, berr)
			return
		}
		c.Clock().Sync(end)
		for step := 0; step < cfg.Timesteps; step++ {
			t0 := c.Now()
			h.Step()
			t1 := c.Now()
			stepDur[r][step] = t1 - t0
			sys.Expose("step", step)
			end, perr := sys.Share("temp", h.Local(), t1)
			if perr != nil {
				errs <- fmt.Errorf("rank %d step %d: %w", r, step, perr)
				return
			}
			c.Clock().Sync(end)
			commDur[r][step] = c.Now() - t1
		}
		if _, ferr := sys.Finalize(c.Now()); ferr != nil {
			errs <- ferr
			return
		}
		simEnds[r] = c.Now()
	})
	if ctrl != nil {
		// All kills have fired (they trigger at publish points, and the
		// rank loop is done). Republish blocks whose worker died after
		// the publish, until the scheduler reports nothing external —
		// otherwise the analytics would wait forever on lost data.
		if kerrs := ctrl.KillErrs(); len(kerrs) > 0 {
			return nil, kerrs[0]
		}
		now := vtime.MaxTime(simEnds...)
		for {
			n := 0
			for _, b := range bridges {
				k, rerr := b.RepublishLost(now)
				if rerr != nil {
					return nil, rerr
				}
				n += k
			}
			if n == 0 {
				break
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return nil, err
	}
	res := e.aggregate(stepDur, commDur, simEnds, analytics)
	for _, b := range bridges {
		sent, skipped := b.Stats()
		res.BlocksSent += sent
		res.BlocksSkipped += skipped
	}
	return res, nil
}

// runPostHoc executes the DASK baseline: simulation writes chunked files
// to the shared PFS, then plain Dask analytics read them back.
func runPostHoc(cfg Config) (*Result, error) {
	p := newPlatform(cfg.Model, cfg.Workers, cfg.Ranks, cfg.Seed)
	e, err := newEnv(p, cfg, "", p.place.RankNodes)
	if err != nil {
		return nil, err
	}
	fs := pfs.New(cfg.Model.PFS)
	fs.UseMetrics(e.reg)
	file, t0 := h5.Create(fs, "sim.h5", 0)
	ds, t0, err := file.CreateDataset(ArrayName, e.va.Size, e.va.Subsize, t0)
	if err != nil {
		return nil, err
	}
	realBlockBytes := int64(cfg.RealLocalX*cfg.RealLocalY) * 8
	scale := cfg.BlockBytes / realBlockBytes
	if scale < 1 {
		scale = 1
	}
	ds.SetSizeScale(scale)

	world := mpi.NewWorld(e.machine.Fabric(), e.rankNodes)
	stepDur := newMatrix(cfg.Ranks, cfg.Timesteps)
	writeDur := newMatrix(cfg.Ranks, cfg.Timesteps)
	simEnds := make([]float64, cfg.Ranks)
	errs := make(chan error, cfg.Ranks)

	init := sim.HotSpotInitial(e.heatCfg)
	world.Run(t0, func(c *mpi.Comm) {
		r := c.Rank()
		h, herr := sim.New(e.heatCfg, c, init)
		if herr != nil {
			errs <- herr
			return
		}
		// The rank talks only to PDI; the HDF5 plugin writes the chunks.
		sys, serr := newPostHocRankSystem(cfg, r, file, fs)
		if serr != nil {
			errs <- serr
			return
		}
		for step := 0; step < cfg.Timesteps; step++ {
			s0 := c.Now()
			h.Step()
			s1 := c.Now()
			stepDur[r][step] = s1 - s0
			sys.Expose("step", step)
			end, werr := sys.Share("temp", h.Local(), s1)
			if werr != nil {
				errs <- fmt.Errorf("rank %d write %d: %w", r, step, werr)
				return
			}
			c.Clock().Sync(end)
			writeDur[r][step] = end - s1
		}
		simEnds[r] = c.Now()
	})
	close(errs)
	for err := range errs {
		return nil, err
	}
	simEnd := vtime.MaxTime(simEnds...)
	// The write phase is over and the analytics client below gates its
	// first submission on Compute(simEnd), so every remaining PFS acquire
	// arrives at or after simEnd: compact the booking history up to it.
	fs.ReleaseBefore(simEnd)

	// Analytics phase: a fresh Dask deployment reading from the PFS.
	dc := p.newCluster(cfg)
	defer dc.Close()
	client := dc.NewClient("analytics", e.place.ClientNode, math.Inf(1))
	client.Compute(simEnd) // the analytics job starts when the data is complete

	var analytics analyticsResult
	if cfg.System.NewIPCA() {
		analytics, err = runNewIPCAPostHoc(e, client, ds, simEnd)
	} else {
		analytics, err = runOldIPCAPostHoc(e, client, ds, simEnd)
	}
	if err != nil {
		return nil, err
	}

	res := e.aggregate(stepDur, writeDur, simEnds, analytics)
	res.Trace = dc.TraceEvents()
	if dc.AuditEnabled() {
		res.AuditLog, res.AuditTruncated = dc.AuditLog(), dc.AuditTruncated()
	}
	res.Makespan = vtime.MaxTime(res.SimMakespan, simEnd+res.AnalyticsTime)
	dc.RecordUtilization(res.Makespan)
	p.machine.Fabric().RecordUtilization(res.Makespan)
	fs.RecordUtilization(res.Makespan)
	res.Metrics = p.reg.Snapshot()
	return res, nil
}

func newMatrix(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

// analyticsResult is what every analytics driver returns.
type analyticsResult struct {
	duration          float64
	components        *ndarray.Array
	singularValues    []float64
	explainedVariance []float64
}

// runNewIPCAInTransit is the Listing-2 flow: descriptors, selection,
// contract, then one ahead-of-time graph over the selected external
// blocks — the first steps timesteps of the SelectFraction share of the
// domain. A job killed at step 0 consumes nothing: it publishes an empty
// contract, which unblocks the bridges to filter every block, and
// returns empty results.
func runNewIPCAInTransit(e *env, dc *dask.Cluster, steps int) (analyticsResult, error) {
	cfg := e.cfg
	d := core.ConnectNamespaced(dc, e.place.ClientNode, e.ns)
	set, err := d.GetDeisaArrays()
	if err != nil {
		return analyticsResult{}, err
	}
	if steps == 0 {
		// ValidateContract rejects empty selections, so publish the empty
		// contract directly.
		d.Client().Variable(core.NamespacedVariable(e.ns, core.ContractVariable)).Set(core.NewContract())
		return analyticsResult{duration: d.Client().Now()}, nil
	}
	da, err := set.Get(ArrayName)
	if err != nil {
		return analyticsResult{}, err
	}
	blocks := cfg.Ranks
	if f := cfg.SelectFraction; f > 0 && f < 1 {
		blocks = max(int(f*float64(cfg.Ranks)), 1)
	}
	if steps < cfg.Timesteps || blocks < cfg.Ranks {
		da.Select(
			ndarray.Range{Start: 0, Stop: steps},
			ndarray.Range{Start: 0, Stop: cfg.RealLocalX},
			ndarray.Range{Start: 0, Stop: blocks * cfg.RealLocalY},
		)
	} else {
		da.SelectAll()
	}
	if _, err := set.ValidateContract(); err != nil {
		return analyticsResult{}, err
	}

	return e.submitIPCA(d.Client(), steps, blocks, func(_ *taskgraph.Graph, _ string, t, b int) taskgraph.Key {
		return e.va.BlockKey([]int{t, 0, b})
	})
}

// submitIPCA builds the new IPCA as one ahead-of-time graph over
// steps×blocks inputs — a fold and sketch per block, a fit per step, the
// extraction — and submits it through gatherExtract. input supplies
// block b of step t, adding read tasks to g when the data lives on
// storage.
func (e *env) submitIPCA(client *dask.Client, steps, blocks int,
	input func(g *taskgraph.Graph, suffix string, t, b int) taskgraph.Key) (analyticsResult, error) {
	g := taskgraph.New()
	var prev taskgraph.Key
	for t := 0; t < steps; t++ {
		sketches := make([]taskgraph.Key, 0, blocks)
		for b := 0; b < blocks; b++ {
			suffix := fmt.Sprintf("t%03d-b%04d", t, b)
			sketches = append(sketches, e.pipe.addFoldSketch(g, suffix, input(g, suffix, t, b)))
		}
		prev = e.pipe.addFit(g, taskgraph.Key(fmt.Sprintf("ipca-state-%03d", t)), prev, sketches)
	}
	return e.gatherExtract(client, g, prev, e.cfg.FuseGraphs)
}

// runOldIPCADeisa1 is the DEISA1 analytics driver: per-timestep queue
// coordination and per-batch submissions of the old (non-graph-fused)
// IPCA — a statistics pass and a fit pass in separate graphs.
func runOldIPCADeisa1(e *env, dc *dask.Cluster) (analyticsResult, error) {
	cfg := e.cfg
	client := dc.NewClient("analytics", e.place.ClientNode, math.Inf(1))
	ad := core.NewDeisa1Adaptor(client, cfg.Ranks)
	if _, err := ad.GetDeisaArrays(); err != nil {
		return analyticsResult{}, err
	}
	var prev taskgraph.Key
	for t := 0; t < cfg.Timesteps; t++ {
		keys, err := ad.NextStepKeys()
		if err != nil {
			return analyticsResult{}, err
		}
		prev, err = oldIPCAStep(e, client, t, prev, func(g *taskgraph.Graph, pass string, b int) taskgraph.Key {
			return keys[b] // data already in worker memory
		})
		if err != nil {
			return analyticsResult{}, err
		}
	}
	return e.gatherExtract(client, taskgraph.New(), prev, false)
}

// runNewIPCAPostHoc reads every chunk once inside a single graph.
func runNewIPCAPostHoc(e *env, client *dask.Client, ds *h5.Dataset, start float64) (analyticsResult, error) {
	out, err := e.submitIPCA(client, e.cfg.Timesteps, e.cfg.Ranks, func(g *taskgraph.Graph, suffix string, t, b int) taskgraph.Key {
		return e.pipe.addRead(g, suffix, ds, t, b)
	})
	if err != nil {
		return analyticsResult{}, err
	}
	out.duration -= start
	return out, nil
}

// runOldIPCAPostHoc submits per-batch graphs; each pass re-reads its
// chunks from the PFS (the duplicate-read effect of §3.3.1).
func runOldIPCAPostHoc(e *env, client *dask.Client, ds *h5.Dataset, start float64) (analyticsResult, error) {
	cfg := e.cfg
	var prev taskgraph.Key
	for t := 0; t < cfg.Timesteps; t++ {
		var err error
		prev, err = oldIPCAStep(e, client, t, prev, func(g *taskgraph.Graph, pass string, b int) taskgraph.Key {
			return e.pipe.addRead(g, fmt.Sprintf("%s-t%03d-b%04d", pass, t, b), ds, t, b)
		})
		if err != nil {
			return analyticsResult{}, err
		}
	}
	out, err := e.gatherExtract(client, taskgraph.New(), prev, false)
	if err != nil {
		return analyticsResult{}, err
	}
	out.duration -= start
	return out, nil
}

// oldIPCAStep performs one timestep of the old IPCA: a statistics pass
// and a fit pass, each submitted (and awaited) as its own graph. source
// supplies the per-block input key for a pass, adding read tasks to the
// pass's graph when the data lives on storage.
func oldIPCAStep(e *env, client *dask.Client, t int, prev taskgraph.Key,
	source func(g *taskgraph.Graph, pass string, b int) taskgraph.Key) (taskgraph.Key, error) {
	cfg := e.cfg
	// Pass A: batch statistics (mean/var), one pass over the data.
	gA := taskgraph.New()
	var foldsA []taskgraph.Key
	for b := 0; b < cfg.Ranks; b++ {
		src := source(gA, "A", b)
		foldsA = append(foldsA, e.pipe.addFold(gA, fmt.Sprintf("A-t%03d-b%04d", t, b), src))
	}
	statsKey := taskgraph.Key(fmt.Sprintf("stats-%03d", t))
	gA.AddFn(statsKey, foldsA, func(in []any) (any, error) {
		var total, count float64
		for _, v := range in {
			m := v.(*ndarray.Array)
			total += m.Sum()
			count += float64(m.Size())
		}
		if count == 0 {
			return 0.0, nil
		}
		return total / count, nil
	}, 1e-4)
	futsA, err := client.Submit(gA, []taskgraph.Key{statsKey})
	if err != nil {
		return "", err
	}
	if err := client.Wait(futsA); err != nil {
		return "", err
	}
	// Pass B: sketches and the partial fit.
	gB := taskgraph.New()
	var sketches []taskgraph.Key
	for b := 0; b < cfg.Ranks; b++ {
		src := source(gB, "B", b)
		fold := e.pipe.addFold(gB, fmt.Sprintf("B-t%03d-b%04d", t, b), src)
		sketches = append(sketches, e.pipe.addSketch(gB, fmt.Sprintf("B-t%03d-b%04d", t, b), fold))
	}
	stateKey := e.pipe.addFit(gB, taskgraph.Key(fmt.Sprintf("ipca-state-%03d", t)), prev, sketches)
	futsB, err := client.Submit(gB, []taskgraph.Key{stateKey})
	if err != nil {
		return "", err
	}
	if err := client.Wait(futsB); err != nil {
		return "", err
	}
	return stateKey, nil
}

// gatherExtract adds the extraction tasks for the final state to g,
// applies the fuse optimization (dask.optimization.fuse) when asked,
// submits the graph and gathers the results; their duration is the
// client's clock at completion.
func (e *env) gatherExtract(client *dask.Client, g *taskgraph.Graph, state taskgraph.Key, fuse bool) (analyticsResult, error) {
	targets := e.pipe.addExtract(g, "ipca", state)
	if fuse {
		keep := map[taskgraph.Key]bool{}
		for _, t := range targets {
			keep[t] = true
		}
		g = taskgraph.Fuse(g, keep)
	}
	futs, err := client.Submit(g, targets)
	if err != nil {
		return analyticsResult{}, err
	}
	vals, err := client.Gather(futs)
	if err != nil {
		return analyticsResult{}, err
	}
	return analyticsResult{
		duration:          client.Now(),
		components:        vals[0].(*ndarray.Array),
		singularValues:    vals[1].([]float64),
		explainedVariance: vals[2].([]float64),
	}, nil
}
