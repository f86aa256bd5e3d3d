// Package array implements the chunk grid of a distributed array,
// mirroring dask.array: an array is a grid of blocks, each named by the
// key of the task (here, the external task a simulation executes) that
// produces it, plus chunk-level selection. The deisa layer (package
// core) builds a Chunked array from a virtual-array descriptor so that
// analytics code addresses simulation output block by block.
package array

import (
	"fmt"
	"strings"

	"deisago/internal/taskgraph"
)

// Chunked is a distributed n-dimensional array split into a regular chunk
// grid. Chunk (i,j,...) covers the half-open hyper-rectangle
// [i*chunk, min((i+1)*chunk, shape)) in each dimension.
type Chunked struct {
	name       string
	shape      []int
	chunkShape []int
	keys       map[string]taskgraph.Key
}

// FromKeys builds an array whose chunks are externally produced keys
// (external tasks or scattered data); keyAt maps a chunk coordinate to
// its key.
func FromKeys(name string, shape, chunkShape []int, keyAt func(idx []int) taskgraph.Key) *Chunked {
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
	a := &Chunked{
		name:       name,
		shape:      append([]int(nil), shape...),
		chunkShape: append([]int(nil), chunkShape...),
		keys:       map[string]taskgraph.Key{},
	}
	a.eachChunk(func(idx []int) {
		a.keys[coordString(idx)] = keyAt(idx)
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

// Grid returns the number of chunks per dimension.
func (a *Chunked) Grid() []int {
	g := make([]int, len(a.shape))
	for i := range g {
		g[i] = (a.shape[i] + a.chunkShape[i] - 1) / a.chunkShape[i]
	}
	return g
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

// ChunkKey returns the key producing the chunk at idx.
func (a *Chunked) ChunkKey(idx ...int) taskgraph.Key {
	k, ok := a.keys[coordString(idx)]
	if !ok {
		panic(fmt.Sprintf("array %s: no chunk at %v", a.name, idx))
	}
	return k
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

// Keys returns the keys of the selected chunks.
func (s *Selection) Keys() []taskgraph.Key {
	out := make([]taskgraph.Key, len(s.Chunks))
	for i, c := range s.Chunks {
		out[i] = s.arr.ChunkKey(c...)
	}
	return out
}
