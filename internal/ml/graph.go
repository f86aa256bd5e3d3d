package ml

import (
	"fmt"

	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// This file expresses IPCA as a task graph. The paper contrasts two ways
// of doing this:
//
//   - the "old IPCA" (§3.1): the driver submits one small graph per
//     partial_fit, waiting for each before submitting the next. Across
//     submissions Dask cannot share work, so in the post hoc case every
//     submission re-reads its input chunks from storage;
//   - the "new IPCA" (§3.2): the whole multi-timestep chain is built
//     ahead of time and submitted once, letting the scheduler pipeline
//     partial_fits with data production and read every chunk exactly
//     once.
//
// BuildIPCAChain builds the chain subgraph used by both: the old-IPCA
// driver (package core / harness) calls it with a single batch at a time
// in per-step graphs, while the new-IPCA driver calls it once with every
// batch key.

// FoldSpec describes how to fold a spatial slab into a samples×features
// matrix (the xarray stacking of §3.2).
type FoldSpec struct {
	Dims        []string // dimension names of the slab, e.g. ["X","Y"]
	SampleDims  []string // dims folded into rows, e.g. ["Y"]
	FeatureDims []string // dims folded into columns, e.g. ["X"]
}

// AddFoldTask adds a task that folds the slab produced by dep into a 2-D
// samples×features matrix according to the spec, returning the new key.
func AddFoldTask(g *taskgraph.Graph, key, dep taskgraph.Key, spec FoldSpec, bytes int64) taskgraph.Key {
	cost := vtime.Dur(float64(bytes) * 1e-9)
	t := g.AddFn(key, []taskgraph.Key{dep}, func(in []any) (any, error) {
		slab, ok := in[0].(*ndarray.Array)
		if !ok {
			return nil, fmt.Errorf("ml: fold input is %T, want *ndarray.Array", in[0])
		}
		labeled := ndarray.NewLabeled(slab, spec.Dims...)
		return labeled.StackToMatrix(spec.SampleDims, spec.FeatureDims), nil
	}, cost)
	t.OutBytes = bytes
	return key
}

// ChainResult names the keys produced by BuildIPCAChain.
type ChainResult struct {
	StateKeys         []taskgraph.Key // state after each batch (StateKeys[i] = after batch i)
	FinalState        taskgraph.Key
	Components        taskgraph.Key
	SingularValues    taskgraph.Key
	ExplainedVariance taskgraph.Key
}

// BuildIPCAChain adds the partial_fit chain over the given batch keys
// (each producing a samples×features *ndarray.Array) to g. initial may
// name a state key produced elsewhere (for resuming a chain across
// per-step submissions, as the old IPCA does); if empty, a fresh
// estimator with nComponents is created in-graph. batchRows and features
// size the cost model (RandomizedSVDCost, the paper's svd_solver); they
// may exceed the real array sizes when the harness models paper-scale
// data over small arrays.
func BuildIPCAChain(g *taskgraph.Graph, name string, batchKeys []taskgraph.Key,
	initial taskgraph.Key, nComponents, batchRows, features int) ChainResult {
	if len(batchKeys) == 0 {
		panic("ml: BuildIPCAChain needs at least one batch")
	}
	stateBytes := int64(nComponents*features+3*features)*8 + 64
	prev := initial
	res := ChainResult{}
	for i, bk := range batchKeys {
		stateKey := taskgraph.Key(fmt.Sprintf("%s-state-%d", name, i))
		cost := vtime.Dur(RandomizedSVDCost(batchRows, features, nComponents))
		var task *taskgraph.Task
		if prev == "" {
			k := nComponents
			task = g.AddFn(stateKey, []taskgraph.Key{bk}, func(in []any) (any, error) {
				batch, ok := in[0].(*ndarray.Array)
				if !ok {
					return nil, fmt.Errorf("ml: batch is %T, want *ndarray.Array", in[0])
				}
				est := NewIncrementalPCA(k)
				if err := est.PartialFit(batch); err != nil {
					return nil, err
				}
				return est, nil
			}, cost)
		} else {
			task = g.AddFn(stateKey, []taskgraph.Key{prev, bk}, func(in []any) (any, error) {
				state, ok := in[0].(*IncrementalPCA)
				if !ok {
					return nil, fmt.Errorf("ml: state is %T, want *IncrementalPCA", in[0])
				}
				batch, ok := in[1].(*ndarray.Array)
				if !ok {
					return nil, fmt.Errorf("ml: batch is %T, want *ndarray.Array", in[1])
				}
				next := state.Clone()
				if err := next.PartialFit(batch); err != nil {
					return nil, err
				}
				return next, nil
			}, cost)
		}
		task.OutBytes = stateBytes
		res.StateKeys = append(res.StateKeys, stateKey)
		prev = stateKey
	}
	res.FinalState = prev

	res.Components = taskgraph.Key(name + "-components")
	g.AddFn(res.Components, []taskgraph.Key{res.FinalState}, func(in []any) (any, error) {
		return in[0].(*IncrementalPCA).Components, nil
	}, 1e-6)
	res.SingularValues = taskgraph.Key(name + "-singular-values")
	g.AddFn(res.SingularValues, []taskgraph.Key{res.FinalState}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*IncrementalPCA).SingularValues...), nil
	}, 1e-6)
	res.ExplainedVariance = taskgraph.Key(name + "-explained-variance")
	g.AddFn(res.ExplainedVariance, []taskgraph.Key{res.FinalState}, func(in []any) (any, error) {
		return append([]float64(nil), in[0].(*IncrementalPCA).ExplainedVariance...), nil
	}, 1e-6)
	return res
}
