package array

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

func testCluster(t *testing.T, nWorkers int) (*dask.Cluster, *dask.Client) {
	t.Helper()
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	fabric := netsim.New(cfg, nWorkers+2)
	wnodes := make([]netsim.NodeID, nWorkers)
	for i := range wnodes {
		wnodes[i] = netsim.NodeID(i + 2)
	}
	c := dask.NewCluster(fabric, dask.DefaultConfig(), 0, wnodes)
	t.Cleanup(c.Close)
	return c, c.NewClient("client", 1, math.Inf(1))
}

// chunkFilled builds an array whose chunk (i,j,...) is the external key
// "<name>-i.j...".
func chunkFilled(name string, shape, chunks []int) *Chunked {
	return FromKeys(name, shape, chunks, func(idx []int) taskgraph.Key {
		return taskgraph.Key(name + "-" + coordString(idx))
	})
}

func TestGridAndExtents(t *testing.T) {
	a := chunkFilled("a", []int{5, 7}, []int{2, 3})
	g := a.Grid()
	if g[0] != 3 || g[1] != 3 {
		t.Fatalf("Grid = %v", g)
	}
	ext := a.ChunkExtent([]int{2, 2})
	if ext[0] != 1 || ext[1] != 1 {
		t.Fatalf("edge extent = %v", ext)
	}
	if ext := a.ChunkExtent([]int{0, 0}); ext[0] != 2 || ext[1] != 3 {
		t.Fatalf("interior extent = %v", ext)
	}
}

func TestFromKeysExternals(t *testing.T) {
	a := FromKeys("g", []int{2, 4}, []int{1, 2}, func(idx []int) taskgraph.Key {
		return taskgraph.Key(fmt.Sprintf("deisa-g-%d.%d", idx[0], idx[1]))
	})
	if keys := a.SelectAll().Keys(); len(keys) != 4 || keys[0] != "deisa-g-0.0" {
		t.Fatalf("keys = %v", keys)
	}
	if a.ChunkKey(1, 1) != "deisa-g-1.1" {
		t.Fatalf("ChunkKey = %s", a.ChunkKey(1, 1))
	}
}

func TestSelectAll(t *testing.T) {
	a := chunkFilled("a", []int{4, 4}, []int{2, 2})
	sel := a.SelectAll()
	if len(sel.Chunks) != 4 {
		t.Fatalf("SelectAll chunks = %d", len(sel.Chunks))
	}
	if len(sel.Keys()) != 4 {
		t.Fatal("Keys length")
	}
}

func TestSelectRanges(t *testing.T) {
	a := chunkFilled("a", []int{6, 6}, []int{2, 2}) // 3x3 grid
	// Elements [0,2) x [0,6): top row of chunks only.
	sel := a.Select(Range{0, 2}, Range{0, 6})
	if len(sel.Chunks) != 3 {
		t.Fatalf("row selection = %v", sel.Chunks)
	}
	// A single element hits exactly one chunk.
	sel2 := a.Select(Range{3, 4}, Range{5, 6})
	if len(sel2.Chunks) != 1 || sel2.Chunks[0][0] != 1 || sel2.Chunks[0][1] != 2 {
		t.Fatalf("point selection = %v", sel2.Chunks)
	}
	if keys := sel2.Keys(); len(keys) != 1 || keys[0] != "a-1.2" {
		t.Fatalf("point selection keys = %v", keys)
	}
	// A range straddling a chunk boundary selects both.
	sel3 := a.Select(Range{1, 3}, Range{0, 1})
	if len(sel3.Chunks) != 2 {
		t.Fatalf("straddling selection = %v", sel3.Chunks)
	}
}

func TestSelectPanics(t *testing.T) {
	a := chunkFilled("a", []int{4, 4}, []int{2, 2})
	for name, fn := range map[string]func(){
		"rank":  func() { a.Select(Range{0, 1}) },
		"empty": func() { a.Select(Range{2, 2}, Range{0, 4}) },
		"oob":   func() { a.Select(Range{0, 5}, Range{0, 4}) },
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

// Property: Select over the full extent equals SelectAll; any selection
// is a non-empty subset of it.
func TestSelectQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(8) + 1
		cols := rng.Intn(8) + 1
		cr := rng.Intn(rows) + 1
		cc := rng.Intn(cols) + 1
		a := chunkFilled("q", []int{rows, cols}, []int{cr, cc})
		full := a.Select(Range{0, rows}, Range{0, cols})
		if len(full.Chunks) != len(a.SelectAll().Chunks) {
			return false
		}
		r0 := rng.Intn(rows)
		r1 := r0 + 1 + rng.Intn(rows-r0)
		c0 := rng.Intn(cols)
		c1 := c0 + 1 + rng.Intn(cols-c0)
		sub := a.Select(Range{r0, r1}, Range{c0, c1})
		if len(sub.Chunks) == 0 || len(sub.Chunks) > len(full.Chunks) {
			return false
		}
		// Every selected chunk truly intersects the range.
		for _, ch := range sub.Chunks {
			lo0 := ch[0] * cr
			hi0 := lo0 + a.ChunkExtent(ch)[0]
			lo1 := ch[1] * cc
			hi1 := lo1 + a.ChunkExtent(ch)[1]
			if hi0 <= r0 || lo0 >= r1 || hi1 <= c0 || lo1 >= c1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty name": func() { chunkFilled("", []int{2}, []int{1}) },
		"rank":       func() { chunkFilled("x", []int{2, 2}, []int{1}) },
		"zero":       func() { chunkFilled("x", []int{0}, []int{1}) },
		"bad chunk":  func() { chunkFilled("x", []int{2}, []int{0}) },
		"bad key":    func() { chunkFilled("x", []int{2}, []int{1}).ChunkKey(5) },
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

func TestExternalArrayEndToEnd(t *testing.T) {
	// Full deisa-style flow at the array level: external chunks declared,
	// analytics submitted ahead of time, data scattered, result correct.
	c, cl := testCluster(t, 2)
	a := FromKeys("gt", []int{2, 2, 2}, []int{1, 2, 2}, func(idx []int) taskgraph.Key {
		return taskgraph.Key(fmt.Sprintf("deisa-gt-%d", idx[0]))
	})
	keys := []taskgraph.Key{"deisa-gt-0", "deisa-gt-1"}
	if _, err := cl.ExternalFutures(keys); err != nil {
		t.Fatal(err)
	}
	g := taskgraph.New()
	g.AddFn("tot", a.SelectAll().Keys(), func(in []any) (any, error) {
		var s float64
		for _, x := range in {
			s += x.(*ndarray.Array).Sum()
		}
		return s, nil
	}, 1e-4)
	futs, err := cl.Submit(g, []taskgraph.Key{"tot"})
	if err != nil {
		t.Fatal(err)
	}
	bridge := c.NewClient("bridge", 1, math.Inf(1))
	blk0 := ndarray.New(1, 2, 2)
	blk0.Fill(1)
	blk1 := ndarray.New(1, 2, 2)
	blk1.Fill(2)
	if err := bridge.Scatter([]dask.ScatterItem{{Key: "deisa-gt-0", Value: blk0}}, true, 0); err != nil {
		t.Fatal(err)
	}
	if err := bridge.Scatter([]dask.ScatterItem{{Key: "deisa-gt-1", Value: blk1}}, true, 1); err != nil {
		t.Fatal(err)
	}
	vals, err := cl.Gather(futs)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].(float64) != 4*1+4*2 {
		t.Fatalf("sum = %v, want 12", vals[0])
	}
}
