package h5

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/ndarray"
	"deisago/internal/pfs"
	"deisago/internal/vtime"
)

func testFS() *pfs.FS {
	return pfs.New(pfs.Config{OSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 16, MetaLatency: 1e-4})
}

func TestCreateDatasetLookup(t *testing.T) {
	fsys := testFS()
	f, end := Create(fsys, "out.h5", 0)
	if end <= 0 {
		t.Fatal("Create cost no time")
	}
	if _, _, err := f.CreateDataset("temp", []int{4, 6}, []int{2, 3}, end); err != nil {
		t.Fatal(err)
	}
	d, err := f.Dataset("temp")
	if err != nil {
		t.Fatal(err)
	}
	if c := d.ChunkShape(); c[0] != 2 || c[1] != 3 {
		t.Fatalf("ChunkShape = %v", c)
	}
	if g := d.ChunkGrid(); g[0] != 2 || g[1] != 2 {
		t.Fatalf("ChunkGrid = %v", g)
	}
}

// readAll assembles the whole dataset from its chunks, the way a post hoc
// reader sees what the writers left on the file system.
func readAll(d *Dataset, at vtime.Time) (*ndarray.Array, error) {
	out := ndarray.New(d.meta.Shape...)
	grid := d.ChunkGrid()
	idx := make([]int, len(grid))
	for {
		chunk, _, err := d.ReadChunk(idx, at)
		if err != nil {
			return nil, err
		}
		ranges := make([]ndarray.Range, len(idx))
		for i, x := range idx {
			start := x * d.meta.Chunks[i]
			ranges[i] = ndarray.Range{Start: start, Stop: start + chunk.Dim(i)}
		}
		out.Slice(ranges...).CopyFrom(chunk)
		i := len(idx) - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < grid[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

func TestWriteReadChunk(t *testing.T) {
	fsys := testFS()
	f, end := Create(fsys, "x.h5", 0)
	d, end, err := f.CreateDataset("a", []int{4, 4}, []int{2, 2}, end)
	if err != nil {
		t.Fatal(err)
	}
	chunk := ndarray.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	end, err = d.WriteChunk([]int{1, 0}, chunk, end)
	if err != nil {
		t.Fatal(err)
	}
	got, end2, err := d.ReadChunk([]int{1, 0}, end)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= end {
		t.Fatal("read cost no time")
	}
	if !ndarray.Equal(got, chunk) {
		t.Fatalf("chunk roundtrip: got %v", got)
	}
	// Unwritten chunk reads as zeros.
	z, _, err := d.ReadChunk([]int{0, 1}, end2)
	if err != nil {
		t.Fatal(err)
	}
	if z.Sum() != 0 {
		t.Fatal("unwritten chunk not zero")
	}
}

func TestEdgeChunks(t *testing.T) {
	fsys := testFS()
	f, end := Create(fsys, "e.h5", 0)
	// 5x7 with 2x3 chunks: grid 3x3, edge extents 1 and 1.
	d, end, err := f.CreateDataset("a", []int{5, 7}, []int{2, 3}, end)
	if err != nil {
		t.Fatal(err)
	}
	grid := d.ChunkGrid()
	if grid[0] != 3 || grid[1] != 3 {
		t.Fatalf("grid = %v", grid)
	}
	edge := ndarray.FromSlice([]float64{7}, 1, 1)
	if _, err = d.WriteChunk([]int{2, 2}, edge, end); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.ReadChunk([]int{2, 2}, end)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim(0) != 1 || got.Dim(1) != 1 || got.At(0, 0) != 7 {
		t.Fatalf("edge chunk = %v", got)
	}
	// Wrong shape rejected.
	if _, err := d.WriteChunk([]int{2, 2}, ndarray.New(2, 3), end); err == nil {
		t.Fatal("full-size write to edge chunk should error")
	}
}

func TestMultipleDatasetsDoNotOverlap(t *testing.T) {
	fsys := testFS()
	f, end := Create(fsys, "m.h5", 0)
	d1, end, err := f.CreateDataset("a", []int{2, 2}, []int{2, 2}, end)
	if err != nil {
		t.Fatal(err)
	}
	d2, end, err := f.CreateDataset("b", []int{2, 2}, []int{2, 2}, end)
	if err != nil {
		t.Fatal(err)
	}
	a := ndarray.FromSlice([]float64{1, 1, 1, 1}, 2, 2)
	b := ndarray.FromSlice([]float64{2, 2, 2, 2}, 2, 2)
	d1.WriteChunk([]int{0, 0}, a, end)
	d2.WriteChunk([]int{0, 0}, b, end)
	g1, _, _ := d1.ReadChunk([]int{0, 0}, end)
	g2, _, _ := d2.ReadChunk([]int{0, 0}, end)
	if !ndarray.Equal(g1, a) || !ndarray.Equal(g2, b) {
		t.Fatal("datasets overlap on disk")
	}
}

func TestErrors(t *testing.T) {
	fsys := testFS()
	f, end := Create(fsys, "err.h5", 0)
	if _, _, err := f.CreateDataset("a", []int{2}, []int{2, 2}, end); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, _, err := f.CreateDataset("a", []int{0}, []int{1}, end); err == nil {
		t.Fatal("zero extent accepted")
	}
	d, end, err := f.CreateDataset("a", []int{4}, []int{2}, end)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.CreateDataset("a", []int{4}, []int{2}, end); err == nil {
		t.Fatal("duplicate dataset accepted")
	}
	if _, err := f.Dataset("zzz"); err == nil {
		t.Fatal("missing dataset lookup succeeded")
	}
	if _, err := d.WriteChunk([]int{9}, ndarray.New(2), end); err == nil {
		t.Fatal("out-of-grid chunk accepted")
	}
	if _, _, err := d.ReadChunk([]int{0, 0}, end); err == nil {
		t.Fatal("wrong-rank index accepted")
	}
}

// Property: for random shapes/chunkings, writing every chunk of a random
// array then reading every chunk back reproduces the array exactly.
func TestChunkRoundtripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(7) + 1
		cols := rng.Intn(7) + 1
		cr := rng.Intn(rows) + 1
		cc := rng.Intn(cols) + 1
		fsys := testFS()
		file, end := Create(fsys, "q.h5", 0)
		d, end, err := file.CreateDataset("a", []int{rows, cols}, []int{cr, cc}, end)
		if err != nil {
			return false
		}
		want := ndarray.New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want.Set(rng.NormFloat64(), i, j)
			}
		}
		grid := d.ChunkGrid()
		for ci := 0; ci < grid[0]; ci++ {
			for cj := 0; cj < grid[1]; cj++ {
				r0, c0 := ci*cr, cj*cc
				r1, c1 := min(r0+cr, rows), min(c0+cc, cols)
				blk := want.Slice(ndarray.Range{Start: r0, Stop: r1}, ndarray.Range{Start: c0, Stop: c1}).Copy()
				if end, err = d.WriteChunk([]int{ci, cj}, blk, end); err != nil {
					return false
				}
			}
		}
		got, err := readAll(d, end)
		return err == nil && ndarray.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecode(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, 1e300, -1e-300}
	raw := make([]byte, len(xs)*bytesPerElem)
	encodeFloats(raw, xs)
	got := make([]float64, len(xs))
	decodeFloats(got, raw)
	for i := range xs {
		if got[i] != xs[i] {
			t.Fatalf("roundtrip[%d] = %v, want %v", i, got[i], xs[i])
		}
	}
}
