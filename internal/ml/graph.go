package ml

import (
	"fmt"

	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// This file holds the graph-side half of IPCA: the fold task that turns
// a spatial slab into a samples×features matrix. The partial_fit chain
// itself, one graph per step for the paper's "old IPCA" (§3.1) or the
// whole multi-timestep chain in one graph for the "new IPCA" (§3.2), is
// built by the harness pipeline (package harness, pipeline.addFit).

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
