package ml

import (
	"fmt"
	"math"
	"testing"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

func graphTestCluster(t *testing.T) (*dask.Cluster, *dask.Client) {
	t.Helper()
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, 5)
	c := dask.NewCluster(fabric, dask.DefaultConfig(), 0,
		[]netsim.NodeID{2, 3, 4})
	t.Cleanup(c.Close)
	return c, c.NewClient("client", 1, math.Inf(1))
}

// addBatchTasks adds one task per batch returning the given matrices.
func addBatchTasks(g *taskgraph.Graph, name string, batches []*ndarray.Array) []taskgraph.Key {
	keys := make([]taskgraph.Key, len(batches))
	for i, b := range batches {
		b := b
		keys[i] = taskgraph.Key(fmt.Sprintf("%s-batch-%d", name, i))
		g.AddFn(keys[i], nil, func([]any) (any, error) { return b, nil }, 1e-5)
	}
	return keys
}

func TestAddFoldTask(t *testing.T) {
	_, cl := graphTestCluster(t)
	g := taskgraph.New()
	// Slab (X=2, Y=3) with value x*10+y; fold to samples=Y, features=X.
	slab := ndarray.New(2, 3)
	for x := 0; x < 2; x++ {
		for y := 0; y < 3; y++ {
			slab.Set(float64(x*10+y), x, y)
		}
	}
	g.AddFn("slab", nil, func([]any) (any, error) { return slab, nil }, 1e-6)
	AddFoldTask(g, "mat", "slab", FoldSpec{
		Dims:        []string{"X", "Y"},
		SampleDims:  []string{"Y"},
		FeatureDims: []string{"X"},
	}, 48)
	futs, err := cl.Submit(g, []taskgraph.Key{"mat"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	m := vals[0].(*ndarray.Array)
	if m.Dim(0) != 3 || m.Dim(1) != 2 {
		t.Fatalf("folded shape = %v", m.Shape())
	}
	if m.At(2, 1) != 12 || m.At(0, 0) != 0 {
		t.Fatalf("folded values wrong: %v", m)
	}
}
