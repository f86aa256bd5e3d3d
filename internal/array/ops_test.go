package array

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// valueArray builds a chunked array whose element (i,j) has value
// i*1000+j, so any reassembly can be verified positionally.
func valueArray(name string, shape, chunks []int) *Chunked {
	return FromChunkTasks(name, shape, chunks, func(idx, ext []int) (taskgraph.Fn, vtime.Dur) {
		origin := make([]int, len(idx))
		for d := range idx {
			origin[d] = idx[d] * chunks[d]
		}
		extent := append([]int(nil), ext...)
		return func([]any) (any, error) {
			a := ndarray.New(extent...)
			for i := 0; i < extent[0]; i++ {
				for j := 0; j < extent[1]; j++ {
					a.Set(float64((origin[0]+i)*1000+origin[1]+j), i, j)
				}
			}
			return a, nil
		}, 1e-5
	})
}

// testClusterQuickArr builds a cluster without *testing.T for quick.Check.
func testClusterQuickArr() (*dask.Cluster, *dask.Client) {
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, 4)
	c := dask.NewCluster(fabric, dask.DefaultConfig(), 0, []netsim.NodeID{2, 3})
	return c, c.NewClient("client", 1, math.Inf(1))
}

func gatherAll(t *testing.T, a *Chunked) *ndarray.Array {
	t.Helper()
	_, cl := testCluster(t, 2)
	g := taskgraph.New()
	g.Merge(a.Graph())
	// Assemble via one task depending on all chunks.
	var deps []taskgraph.Key
	var idxs [][]int
	a.eachChunk(func(idx []int) {
		deps = append(deps, a.ChunkKey(idx...))
		idxs = append(idxs, append([]int(nil), idx...))
	})
	shape := a.Shape()
	chunks := a.ChunkShape()
	g.AddFn("assemble", deps, func(in []any) (any, error) {
		out := ndarray.New(shape...)
		for i, v := range in {
			chunk := v.(*ndarray.Array)
			ranges := make([]ndarray.Range, len(shape))
			for d := range shape {
				start := idxs[i][d] * chunks[d]
				ranges[d] = ndarray.Range{Start: start, Stop: start + chunk.Dim(d)}
			}
			out.Slice(ranges...).CopyFrom(chunk)
		}
		return out, nil
	}, 1e-5)
	futs, err := cl.Submit(g, []taskgraph.Key{"assemble"})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	return vals[0].(*ndarray.Array)
}

func TestZipAdd(t *testing.T) {
	a := valueArray("a", []int{4, 6}, []int{2, 3})
	b := valueArray("b", []int{4, 6}, []int{2, 3})
	sum := Add("sum", a, b)
	got := gatherAll(t, sum)
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			want := 2 * float64(i*1000+j)
			if got.At(i, j) != want {
				t.Fatalf("sum[%d,%d] = %v, want %v", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestZipSubAndMul(t *testing.T) {
	a := valueArray("a", []int{2, 2}, []int{2, 2})
	b := valueArray("b", []int{2, 2}, []int{2, 2})
	if got := gatherAll(t, Sub("d", a, b)); got.Sum() != 0 {
		t.Fatalf("a-a sum = %v", got.Sum())
	}
	got := gatherAll(t, Mul("m", a, b))
	if got.At(1, 1) != float64(1001*1001) {
		t.Fatalf("mul[1,1] = %v", got.At(1, 1))
	}
}

func TestZipMismatchPanics(t *testing.T) {
	a := valueArray("a", []int{4, 4}, []int{2, 2})
	b := valueArray("b", []int{4, 4}, []int{4, 4})
	defer func() {
		if recover() == nil {
			t.Fatal("chunking mismatch accepted")
		}
	}()
	Add("x", a, b)
}

func TestSumAxisDistributed(t *testing.T) {
	// 4x6, chunks 2x3: sum along axis 0 -> length-6 vector.
	a := valueArray("a", []int{4, 6}, []int{2, 3})
	s := a.SumAxis("s", 0)
	if got := s.Shape(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("reduced shape %v", got)
	}
	if got := s.ChunkShape(); got[0] != 3 {
		t.Fatalf("reduced chunking %v", got)
	}
	res := gatherAll(t, s)
	for j := 0; j < 6; j++ {
		want := 0.0
		for i := 0; i < 4; i++ {
			want += float64(i*1000 + j)
		}
		if res.At(j) != want {
			t.Fatalf("sumaxis[%d] = %v, want %v", j, res.At(j), want)
		}
	}
}

func TestMaxAxisDistributed(t *testing.T) {
	a := valueArray("a", []int{4, 6}, []int{2, 3})
	m := a.MaxAxis("m", 1)
	res := gatherAll(t, m)
	for i := 0; i < 4; i++ {
		if res.At(i) != float64(i*1000+5) {
			t.Fatalf("maxaxis[%d] = %v", i, res.At(i))
		}
	}
}

func TestReduceAxisPanics(t *testing.T) {
	a := valueArray("a", []int{4}, []int{2})
	for name, fn := range map[string]func(){
		"axis range": func() { valueArray("b", []int{4, 4}, []int{2, 2}).SumAxis("x", 5) },
		"rank 1":     func() { a.SumAxis("y", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: distributed SumAxis equals local SumAxis for random shapes
// and chunkings.
func TestSumAxisQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(5) + 2
		cols := rng.Intn(5) + 2
		axis := rng.Intn(2)
		a := valueArray("q", []int{rows, cols},
			[]int{rng.Intn(rows) + 1, rng.Intn(cols) + 1})
		s := a.SumAxis("r", axis)
		c, cl := testClusterQuickArr()
		defer c.Close()
		g, sumKey := s.SumAll("tot")
		futs, err := cl.Submit(g, []taskgraph.Key{sumKey})
		if err != nil {
			return false
		}
		vals, err := cl.Gather(futs)
		if err != nil {
			return false
		}
		want := 0.0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want += float64(i*1000 + j)
			}
		}
		return vals[0].(float64) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
