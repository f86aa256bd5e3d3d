package harness

import (
	"fmt"

	"deisago/internal/h5"
	"deisago/internal/ml"
	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// pipeline builds the analytics task subgraphs shared by the IPCA
// drivers. It reproduces the structure of dask-ml's randomized-solver
// IncrementalPCA over a chunked array:
//
//	block ──fold──► centered samples×features matrix   (one pass, parallel)
//	fold ──sketch──► randomized range sketch            (flops ∝ n·f·k, parallel)
//	sketches + prev state ──fit──► next estimator state (small SVD, sequential)
//
// The real values stay exact (the sketch task passes the true matrix
// through; the fit runs the exact incremental PCA update on real data),
// while the cost and transfer model follows the randomized pipeline —
// notably the sketch output is modelled at sketch size, so only small
// data crosses workers toward the sequential chain.
type pipeline struct {
	cfg Config
	// prefix scopes every key the pipeline mints to one job namespace
	// ("<ns>/"); empty on single-job runs, so the historical key names
	// are untouched.
	prefix string
	// Modelled dimensions.
	nBlock int // samples per block
	f      int // features
	k      int
}

// newPipeline builds a pipeline whose keys are scoped to the job
// namespace ns ("" for none).
func newPipeline(cfg Config, ns string) *pipeline {
	f := cfg.Model.FeaturesModel
	n := int(cfg.BlockBytes / 8 / int64(f))
	if n < 1 {
		n = 1
	}
	prefix := ""
	if ns != "" {
		prefix = ns + "/"
	}
	return &pipeline{cfg: cfg, prefix: prefix, nBlock: n, f: f, k: cfg.Model.NComponents}
}

func (p *pipeline) foldCost() vtime.Dur {
	return float64(p.cfg.BlockBytes) * p.cfg.Model.FoldCostPerByte
}

func (p *pipeline) sketchCost() vtime.Dur {
	return 4 * float64(p.nBlock) * float64(p.f) * float64(p.k+10) * p.cfg.Model.FlopTime
}

func (p *pipeline) sketchBytes() int64 {
	return int64(p.nBlock) * int64(p.k+10) * 8
}

func (p *pipeline) fitCost(blocks int) vtime.Dur {
	rows := float64(p.nBlock * blocks)
	s := float64(p.k + 10)
	return 20 * s * s * (rows + float64(p.f)) * p.cfg.Model.FlopTime
}

func (p *pipeline) stateBytes() int64 {
	return int64(p.k*p.f+3*p.f)*8 + 64
}

// foldSpec folds a (1, X, Yloc) block into a (Yloc × X) samples×features
// matrix, as the paper's fit(gt, ["t","X","Y"], ["X"], ["Y"]).
var foldSpec = ml.FoldSpec{
	Dims:        []string{"t", "X", "Y"},
	SampleDims:  []string{"t", "Y"},
	FeatureDims: []string{"X"},
}

// addRead adds a PFS chunk-read task (post hoc only). Its duration is
// dynamic: the simulated file system prices the read under contention.
func (p *pipeline) addRead(g *taskgraph.Graph, suffix string, ds *h5.Dataset, t, b int) taskgraph.Key {
	key := taskgraph.Key(p.prefix + "read-" + suffix)
	task := g.AddTimed(key, nil, func(_ []any, start vtime.Time) (any, vtime.Time, error) {
		block, end, err := ds.ReadChunk([]int{t, 0, b}, start)
		if err != nil {
			return nil, start, err
		}
		return block, end, nil
	}, 0)
	task.OutBytes = p.cfg.BlockBytes
	return key
}

// addFold adds the centering/stacking pass over one block.
func (p *pipeline) addFold(g *taskgraph.Graph, suffix string, blockKey taskgraph.Key) taskgraph.Key {
	key := taskgraph.Key(p.prefix + "fold-" + suffix)
	task := g.AddFn(key, []taskgraph.Key{blockKey}, func(in []any) (any, error) {
		block, ok := in[0].(*ndarray.Array)
		if !ok {
			return nil, fmt.Errorf("harness: fold input is %T, want *ndarray.Array", in[0])
		}
		labeled := ndarray.NewLabeled(block, foldSpec.Dims...)
		return labeled.StackToMatrix(foldSpec.SampleDims, foldSpec.FeatureDims), nil
	}, p.foldCost())
	task.OutBytes = p.cfg.BlockBytes
	task.Priority = 1 // behind chain-critical fit tasks
	return key
}

// addSketch adds the randomized range-sketch stage. The real value passes
// through unchanged (exactness); the model prices the sketch flops and
// ships only the sketch-sized output.
func (p *pipeline) addSketch(g *taskgraph.Graph, suffix string, foldKey taskgraph.Key) taskgraph.Key {
	key := taskgraph.Key(p.prefix + "sketch-" + suffix)
	task := g.AddFn(key, []taskgraph.Key{foldKey}, func(in []any) (any, error) {
		m, ok := in[0].(*ndarray.Array)
		if !ok {
			return nil, fmt.Errorf("harness: sketch input is %T, want *ndarray.Array", in[0])
		}
		return m, nil
	}, p.sketchCost())
	task.OutBytes = p.sketchBytes()
	task.Priority = 1
	return key
}

// addFoldSketch chains fold and sketch for one block.
func (p *pipeline) addFoldSketch(g *taskgraph.Graph, suffix string, blockKey taskgraph.Key) taskgraph.Key {
	return p.addSketch(g, suffix, p.addFold(g, suffix, blockKey))
}

// addFit adds the sequential chain stage: it concatenates the step's
// batch matrices (sample-wise) and folds them into the running estimator.
// prev is empty for the first step.
func (p *pipeline) addFit(g *taskgraph.Graph, key, prev taskgraph.Key, sketches []taskgraph.Key) taskgraph.Key {
	key = taskgraph.Key(p.prefix) + key
	deps := make([]taskgraph.Key, 0, len(sketches)+1)
	hasPrev := prev != ""
	if hasPrev {
		deps = append(deps, prev)
	}
	deps = append(deps, sketches...)
	k := p.k
	task := g.AddFn(key, deps, func(in []any) (any, error) {
		var est *ml.IncrementalPCA
		first := 0
		if hasPrev {
			state, ok := in[0].(*ml.IncrementalPCA)
			if !ok {
				return nil, fmt.Errorf("harness: fit state is %T", in[0])
			}
			est = state.Clone()
			first = 1
		} else {
			est = ml.NewIncrementalPCA(k)
		}
		mats := make([]*ndarray.Array, 0, len(in)-first)
		for _, v := range in[first:] {
			m, ok := v.(*ndarray.Array)
			if !ok {
				return nil, fmt.Errorf("harness: fit batch is %T", v)
			}
			mats = append(mats, m)
		}
		batch := mats[0]
		if len(mats) > 1 {
			batch = ndarray.Concat(0, mats...)
		}
		if err := est.PartialFit(batch); err != nil {
			return nil, err
		}
		return est, nil
	}, p.fitCost(len(sketches)))
	task.OutBytes = p.stateBytes()
	// The sequential chain is the analytics critical path: run fits
	// ahead of queued folds/sketches of later steps (Dask's graph-order
	// priorities achieve the same).
	task.Priority = -1
	return key
}

// addExtract adds the three result-extraction tasks and returns their
// keys in [components, singular values, explained variance] order.
func (p *pipeline) addExtract(g *taskgraph.Graph, name string, state taskgraph.Key) []taskgraph.Key {
	name = p.prefix + name
	comp := taskgraph.Key(name + "-components")
	g.AddFn(comp, []taskgraph.Key{state}, func(in []any) (any, error) {
		return in[0].(*ml.IncrementalPCA).Components, nil
	}, 1e-6)
	sv := taskgraph.Key(name + "-singular-values")
	g.AddFn(sv, []taskgraph.Key{state}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*ml.IncrementalPCA).SingularValues...), nil
	}, 1e-6)
	ev := taskgraph.Key(name + "-explained-variance")
	g.AddFn(ev, []taskgraph.Key{state}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*ml.IncrementalPCA).ExplainedVariance...), nil
	}, 1e-6)
	return []taskgraph.Key{comp, sv, ev}
}
