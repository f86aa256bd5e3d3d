// Package array implements chunked distributed arrays on top of the dask
// runtime, mirroring dask.array: an array is a chunk grid whose blocks
// are produced by graph tasks (or by external tasks executed by a
// simulation), plus graph-building operations — blockwise maps,
// reductions, slab assembly, and chunk-level selection. The deisa layer
// (package core) builds a Chunked array from a virtual-array descriptor
// so that analytics code manipulates simulation output exactly like any
// other distributed array.
package array

import (
	"fmt"
	"strings"

	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
	"deisago/internal/vtime"
)

// DefaultCostPerByte models per-byte task execution cost (memory-bound
// kernels around 1 GB/s effective).
const DefaultCostPerByte = 1e-9

// Chunked is a distributed n-dimensional array split into a regular chunk
// grid. Chunk (i,j,...) covers the half-open hyper-rectangle
// [i*chunk, min((i+1)*chunk, shape)) in each dimension.
type Chunked struct {
	name       string
	shape      []int
	chunkShape []int
	graph      *taskgraph.Graph
	keys       map[string]taskgraph.Key
	externals  map[taskgraph.Key]bool
}

// New creates an empty chunked array skeleton; chunks are attached by the
// From* constructors.
func newChunked(name string, shape, chunkShape []int) *Chunked {
	if name == "" {
		panic("array: name must be non-empty")
	}
	if len(shape) == 0 || len(shape) != len(chunkShape) {
		panic(fmt.Sprintf("array: shape %v and chunkShape %v must have equal non-zero rank", shape, chunkShape))
	}
	for i := range shape {
		if shape[i] <= 0 || chunkShape[i] <= 0 {
			panic(fmt.Sprintf("array: non-positive extent in shape %v / chunks %v", shape, chunkShape))
		}
	}
	return &Chunked{
		name:       name,
		shape:      append([]int(nil), shape...),
		chunkShape: append([]int(nil), chunkShape...),
		graph:      taskgraph.New(),
		keys:       map[string]taskgraph.Key{},
		externals:  map[taskgraph.Key]bool{},
	}
}

// FromKeys builds an array whose chunks are externally produced keys
// (external tasks or scattered data); keyAt maps a chunk coordinate to
// its key.
func FromKeys(name string, shape, chunkShape []int, keyAt func(idx []int) taskgraph.Key) *Chunked {
	a := newChunked(name, shape, chunkShape)
	a.eachChunk(func(idx []int) {
		k := keyAt(idx)
		a.keys[coordString(idx)] = k
		a.externals[k] = true
	})
	return a
}

// FromChunkTasks builds an array whose chunks are computed by graph
// tasks; mk returns the task body and cost for each chunk coordinate.
// The chunk extent (trimmed at array edges) is passed for convenience.
func FromChunkTasks(name string, shape, chunkShape []int,
	mk func(idx, extent []int) (taskgraph.Fn, vtime.Dur)) *Chunked {
	a := newChunked(name, shape, chunkShape)
	a.eachChunk(func(idx []int) {
		key := a.defaultKey(idx)
		fn, cost := mk(append([]int(nil), idx...), a.ChunkExtent(idx))
		a.graph.AddFn(key, nil, fn, cost)
		a.keys[coordString(idx)] = key
	})
	return a
}

func coordString(idx []int) string {
	parts := make([]string, len(idx))
	for i, x := range idx {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ".")
}

func (a *Chunked) defaultKey(idx []int) taskgraph.Key {
	return taskgraph.Key(a.name + "-" + coordString(idx))
}

// Name returns the array name.
func (a *Chunked) Name() string { return a.name }

// Shape returns the global shape.
func (a *Chunked) Shape() []int { return append([]int(nil), a.shape...) }

// ChunkShape returns the regular chunk shape.
func (a *Chunked) ChunkShape() []int { return append([]int(nil), a.chunkShape...) }

// Grid returns the number of chunks per dimension.
func (a *Chunked) Grid() []int {
	g := make([]int, len(a.shape))
	for i := range g {
		g[i] = (a.shape[i] + a.chunkShape[i] - 1) / a.chunkShape[i]
	}
	return g
}

// NumChunks returns the total number of chunks.
func (a *Chunked) NumChunks() int {
	n := 1
	for _, g := range a.Grid() {
		n *= g
	}
	return n
}

// ChunkExtent returns the in-bounds shape of the chunk at idx.
func (a *Chunked) ChunkExtent(idx []int) []int {
	grid := a.Grid()
	ext := make([]int, len(idx))
	for i, x := range idx {
		if x < 0 || x >= grid[i] {
			panic(fmt.Sprintf("array: chunk %v outside grid %v", idx, grid))
		}
		ext[i] = a.chunkShape[i]
		if rem := a.shape[i] - x*a.chunkShape[i]; rem < ext[i] {
			ext[i] = rem
		}
	}
	return ext
}

// ChunkBytes returns the modelled byte size of the chunk at idx.
func (a *Chunked) ChunkBytes(idx []int) int64 {
	n := int64(1)
	for _, e := range a.ChunkExtent(idx) {
		n *= int64(e)
	}
	return n * 8
}

// ChunkKey returns the key producing the chunk at idx.
func (a *Chunked) ChunkKey(idx ...int) taskgraph.Key {
	k, ok := a.keys[coordString(idx)]
	if !ok {
		panic(fmt.Sprintf("array: no chunk at %v", idx))
	}
	return k
}

// Graph returns the graph holding the array's tasks. Callers must not
// mutate tasks they did not add.
func (a *Chunked) Graph() *taskgraph.Graph { return a.graph }

// Externals returns the set of chunk keys satisfied outside the graph.
func (a *Chunked) Externals() map[taskgraph.Key]bool {
	out := make(map[taskgraph.Key]bool, len(a.externals))
	for k := range a.externals {
		out[k] = true
	}
	return out
}

// eachChunk visits every chunk coordinate in row-major order.
func (a *Chunked) eachChunk(f func(idx []int)) {
	grid := a.Grid()
	idx := make([]int, len(grid))
	for {
		f(idx)
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < grid[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// derive creates a result array sharing this array's graph (merged).
func (a *Chunked) derive(name string, shape, chunkShape []int) *Chunked {
	out := newChunked(name, shape, chunkShape)
	out.graph.Merge(a.graph)
	for k := range a.externals {
		out.externals[k] = true
	}
	return out
}

// Map returns a new array whose chunks apply f elementwise to this
// array's chunks (blockwise, no communication).
func (a *Chunked) Map(name string, f func(x float64) float64) *Chunked {
	out := a.derive(name, a.shape, a.chunkShape)
	a.eachChunk(func(idx []int) {
		dep := a.ChunkKey(idx...)
		key := out.defaultKey(idx)
		cost := vtime.Dur(float64(a.ChunkBytes(idx)) * DefaultCostPerByte)
		out.graph.AddFn(key, []taskgraph.Key{dep}, func(in []any) (any, error) {
			arr, ok := in[0].(*ndarray.Array)
			if !ok {
				return nil, fmt.Errorf("array: chunk %v is %T, want *ndarray.Array", idx, in[0])
			}
			return arr.Apply(f), nil
		}, cost)
		out.keys[coordString(idx)] = key
	})
	return out
}

// SumAll returns the key of a task computing the sum of all elements
// (per-chunk partial sums, then one combine task), and the graph/externals
// needed to submit it.
func (a *Chunked) SumAll(name string) (*taskgraph.Graph, taskgraph.Key) {
	g := taskgraph.New()
	g.Merge(a.graph)
	var partials []taskgraph.Key
	a.eachChunk(func(idx []int) {
		dep := a.ChunkKey(idx...)
		key := taskgraph.Key(fmt.Sprintf("%s-part-%s", name, coordString(idx)))
		cost := vtime.Dur(float64(a.ChunkBytes(idx)) * DefaultCostPerByte)
		g.AddFn(key, []taskgraph.Key{dep}, func(in []any) (any, error) {
			arr, ok := in[0].(*ndarray.Array)
			if !ok {
				return nil, fmt.Errorf("array: chunk %v is %T, want *ndarray.Array", idx, in[0])
			}
			return arr.Sum(), nil
		}, cost)
		partials = append(partials, key)
	})
	root := taskgraph.Key(name + "-sum")
	g.AddFn(root, partials, func(in []any) (any, error) {
		var s float64
		for _, x := range in {
			s += x.(float64)
		}
		return s, nil
	}, vtime.Dur(float64(len(partials))*1e-7))
	return g, root
}

// MeanAll returns a graph and key computing the global mean.
func (a *Chunked) MeanAll(name string) (*taskgraph.Graph, taskgraph.Key) {
	g, sumKey := a.SumAll(name)
	n := 1
	for _, s := range a.shape {
		n *= s
	}
	root := taskgraph.Key(name + "-mean")
	g.AddFn(root, []taskgraph.Key{sumKey}, func(in []any) (any, error) {
		return in[0].(float64) / float64(n), nil
	}, 1e-7)
	return g, root
}

// SlabTask adds a task to g assembling all chunks whose leading-dimension
// chunk index equals t into one dense array of shape shape[1:] (the
// leading dimension must have chunk extent 1 — the deisa spatiotemporal
// layout, where dimension 0 is time). It returns the slab task's key.
func (a *Chunked) SlabTask(g *taskgraph.Graph, t int) taskgraph.Key {
	if a.chunkShape[0] != 1 {
		panic("array: SlabTask requires leading chunk extent 1 (time dimension)")
	}
	grid := a.Grid()
	if t < 0 || t >= grid[0] {
		panic(fmt.Sprintf("array: slab %d outside grid %v", t, grid))
	}
	slabShape := a.shape[1:]
	chunkExts := a.chunkShape[1:]

	type blockRef struct {
		idx []int
	}
	var deps []taskgraph.Key
	var blocks []blockRef
	var bytes int64
	a.eachChunk(func(idx []int) {
		if idx[0] != t {
			return
		}
		deps = append(deps, a.ChunkKey(idx...))
		blocks = append(blocks, blockRef{idx: append([]int(nil), idx...)})
		bytes += a.ChunkBytes(idx)
	})
	key := taskgraph.Key(fmt.Sprintf("%s-slab-%d", a.name, t))
	cost := vtime.Dur(float64(bytes) * DefaultCostPerByte)
	task := g.AddFn(key, deps, func(in []any) (any, error) {
		out := ndarray.New(slabShape...)
		for i, b := range blocks {
			chunk, ok := in[i].(*ndarray.Array)
			if !ok {
				return nil, fmt.Errorf("array: slab input %v is %T, want *ndarray.Array", b.idx, in[i])
			}
			// Chunk arrays may carry the leading time dimension of
			// extent 1; squeeze it.
			if chunk.NDim() == len(slabShape)+1 && chunk.Dim(0) == 1 {
				chunk = chunk.Reshape(chunk.Shape()[1:]...)
			}
			ranges := make([]ndarray.Range, len(slabShape))
			for d := range slabShape {
				start := b.idx[d+1] * chunkExts[d]
				ranges[d] = ndarray.Range{Start: start, Stop: start + chunk.Dim(d)}
			}
			out.Slice(ranges...).CopyFrom(chunk)
		}
		return out, nil
	}, cost)
	task.OutBytes = bytes
	return key
}

// Selection identifies a subset of chunks (the unit of the deisa
// contract: bridges ship whole blocks).
type Selection struct {
	arr    *Chunked
	Chunks [][]int // chunk coordinates, row-major order
}

// Range selects [Start, Stop) element indices in one dimension.
type Range struct {
	Start, Stop int
}

// SelectAll selects every chunk.
func (a *Chunked) SelectAll() *Selection {
	sel := &Selection{arr: a}
	a.eachChunk(func(idx []int) {
		sel.Chunks = append(sel.Chunks, append([]int(nil), idx...))
	})
	return sel
}

// Select returns the chunks intersecting the given element ranges (one
// per dimension) — the [] operator of the deisa arrays: a selection at
// block granularity used to sign contracts.
func (a *Chunked) Select(ranges ...Range) *Selection {
	if len(ranges) != len(a.shape) {
		panic(fmt.Sprintf("array: %d ranges for rank-%d array", len(ranges), len(a.shape)))
	}
	for i, r := range ranges {
		if r.Start < 0 || r.Stop > a.shape[i] || r.Start >= r.Stop {
			panic(fmt.Sprintf("array: range [%d,%d) invalid for dim %d of extent %d", r.Start, r.Stop, i, a.shape[i]))
		}
	}
	sel := &Selection{arr: a}
	a.eachChunk(func(idx []int) {
		for d, r := range ranges {
			lo := idx[d] * a.chunkShape[d]
			hi := lo + a.ChunkExtent(idx)[d]
			if hi <= r.Start || lo >= r.Stop {
				return
			}
		}
		sel.Chunks = append(sel.Chunks, append([]int(nil), idx...))
	})
	return sel
}

// Contains reports whether the selection includes the chunk at idx.
func (s *Selection) Contains(idx []int) bool {
	c := coordString(idx)
	for _, ch := range s.Chunks {
		if coordString(ch) == c {
			return true
		}
	}
	return false
}

// Keys returns the keys of the selected chunks.
func (s *Selection) Keys() []taskgraph.Key {
	out := make([]taskgraph.Key, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = s.arr.ChunkKey(c...)
	}
	return out
}

// Bytes returns the total modelled size of the selected chunks.
func (s *Selection) Bytes() int64 {
	var n int64
	for _, c := range s.Chunks {
		n += s.arr.ChunkBytes(c)
	}
	return n
}
