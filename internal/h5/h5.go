// Package h5 implements a minimal HDF5-like container: named
// n-dimensional float64 datasets stored in regular chunks inside a single
// file on the simulated parallel file system. It provides what the
// paper's post hoc baseline needs — the simulation writes one chunked
// dataset per field, and the Dask analytics later read it back with the
// same chunking ("we have chunked the HDF5 files and used the same
// chunking in the analytics", §3.3.1).
package h5

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"deisago/internal/ndarray"
	"deisago/internal/pfs"
	"deisago/internal/vtime"
)

const bytesPerElem = 8

// Chunk staging pools. WriteChunk encodes into a transient byte buffer
// (the pfs copies it into file storage) and ReadChunk decodes from a
// transient one (pfs copies file bytes into it); edge chunks additionally
// stage through a zero-padded float buffer. All of these die immediately
// in the seed implementation, so per-step chunk traffic allocates
// O(chunk) garbage; the pools recycle them instead. Buffers are
// capacity-checked on reuse, so datasets with different chunk sizes can
// share the pools.
var (
	bytePool  = sync.Pool{New: func() any { return new([]byte) }}
	floatPool = sync.Pool{New: func() any { return new([]float64) }}
)

func getByteBuf(n int) *[]byte {
	p := bytePool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func getFloatBuf(n int) *[]float64 {
	p := floatPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

type dsMeta struct {
	Shape  []int `json:"shape"`
	Chunks []int `json:"chunks"`
	Offset int64 `json:"offset"` // byte offset of the first chunk in the data file
	// SizeScale multiplies the modelled I/O cost of every chunk access:
	// the dataset stands in for one SizeScale times larger (harness
	// cost-model knob; 1 by default).
	SizeScale int64 `json:"size_scale,omitempty"`
}

type fileMeta struct {
	Datasets map[string]*dsMeta `json:"datasets"`
	NextOff  int64              `json:"next_off"`
}

// File is an open container.
type File struct {
	fs   *pfs.FS
	path string

	mu   sync.Mutex
	meta fileMeta
}

func metaPath(path string) string { return path + ".meta" }

// Create makes a new, empty container (truncating any existing one) and
// returns it with the virtual completion time.
func Create(fsys *pfs.FS, path string, at vtime.Time) (*File, vtime.Time) {
	end := fsys.Create(path, at)
	end = fsys.Create(metaPath(path), end)
	f := &File{fs: fsys, path: path, meta: fileMeta{Datasets: map[string]*dsMeta{}}}
	end = f.flushMeta(end)
	return f, end
}

func (f *File) flushMeta(at vtime.Time) vtime.Time {
	raw, err := json.Marshal(&f.meta)
	if err != nil {
		panic("h5: metadata marshal failed: " + err.Error())
	}
	// Metadata is small; recreate to truncate stale bytes.
	end := f.fs.Create(metaPath(f.path), at)
	end, werr := f.fs.WriteAt(metaPath(f.path), 0, raw, end)
	if werr != nil {
		panic("h5: metadata write failed: " + werr.Error())
	}
	return end
}

// Dataset is a handle on one chunked dataset.
type Dataset struct {
	file *File
	name string
	meta *dsMeta
}

// CreateDataset allocates a dataset with the given logical shape and
// chunk shape. Edge chunks are stored zero-padded at full chunk size.
func (f *File) CreateDataset(name string, shape, chunks []int, at vtime.Time) (*Dataset, vtime.Time, error) {
	if len(shape) == 0 || len(shape) != len(chunks) {
		return nil, at, fmt.Errorf("h5: shape %v and chunks %v must be same non-zero rank", shape, chunks)
	}
	n := int64(1)
	for i := range shape {
		if shape[i] <= 0 || chunks[i] <= 0 {
			return nil, at, fmt.Errorf("h5: non-positive extent in shape %v / chunks %v", shape, chunks)
		}
		n *= int64(gridDim(shape[i], chunks[i]))
	}
	f.mu.Lock()
	if _, dup := f.meta.Datasets[name]; dup {
		f.mu.Unlock()
		return nil, at, fmt.Errorf("h5: dataset %q already exists", name)
	}
	dm := &dsMeta{
		Shape:  append([]int(nil), shape...),
		Chunks: append([]int(nil), chunks...),
		Offset: f.meta.NextOff,
	}
	chunkBytes := int64(chunkElems(chunks)) * bytesPerElem
	f.meta.Datasets[name] = dm
	f.meta.NextOff += n * chunkBytes
	end := f.flushMeta(at)
	f.mu.Unlock()
	return &Dataset{file: f, name: name, meta: dm}, end, nil
}

// Dataset returns a handle on an existing dataset.
func (f *File) Dataset(name string) (*Dataset, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	dm, ok := f.meta.Datasets[name]
	if !ok {
		return nil, fmt.Errorf("h5: dataset %q not found in %s", name, f.path)
	}
	return &Dataset{file: f, name: name, meta: dm}, nil
}

func gridDim(extent, chunk int) int { return (extent + chunk - 1) / chunk }

func chunkElems(chunks []int) int {
	n := 1
	for _, c := range chunks {
		n *= c
	}
	return n
}

// SetSizeScale declares that every chunk models a scale-times-larger
// block: chunk reads and writes charge the file system for
// scale × actual bytes. It returns the dataset for chaining.
func (d *Dataset) SetSizeScale(scale int64) *Dataset {
	if scale <= 0 {
		panic("h5: size scale must be positive")
	}
	d.meta.SizeScale = scale
	return d
}

// sizeScale returns the effective cost multiplier.
func (d *Dataset) sizeScale() int64 {
	if d.meta.SizeScale <= 0 {
		return 1
	}
	return d.meta.SizeScale
}

// ChunkShape returns the chunking.
func (d *Dataset) ChunkShape() []int { return append([]int(nil), d.meta.Chunks...) }

// ChunkGrid returns the number of chunks in each dimension.
func (d *Dataset) ChunkGrid() []int {
	g := make([]int, len(d.meta.Shape))
	for i := range g {
		g[i] = gridDim(d.meta.Shape[i], d.meta.Chunks[i])
	}
	return g
}

// chunkExtent returns the in-bounds shape of the chunk at idx.
func (d *Dataset) chunkExtent(idx []int) ([]int, error) {
	if len(idx) != len(d.meta.Shape) {
		return nil, fmt.Errorf("h5: chunk index rank %d, dataset rank %d", len(idx), len(d.meta.Shape))
	}
	grid := d.ChunkGrid()
	ext := make([]int, len(idx))
	for i, x := range idx {
		if x < 0 || x >= grid[i] {
			return nil, fmt.Errorf("h5: chunk index %v outside grid %v", idx, grid)
		}
		ext[i] = d.meta.Chunks[i]
		if rem := d.meta.Shape[i] - x*d.meta.Chunks[i]; rem < ext[i] {
			ext[i] = rem
		}
	}
	return ext, nil
}

func (d *Dataset) chunkOffset(idx []int) int64 {
	grid := d.ChunkGrid()
	linear := 0
	for i, x := range idx {
		linear = linear*grid[i] + x
	}
	return d.meta.Offset + int64(linear)*int64(chunkElems(d.meta.Chunks))*bytesPerElem
}

// WriteChunk stores the array as the chunk at idx. The array's shape must
// equal the chunk's in-bounds extent; edge chunks are zero-padded on disk.
func (d *Dataset) WriteChunk(idx []int, a *ndarray.Array, at vtime.Time) (vtime.Time, error) {
	ext, err := d.chunkExtent(idx)
	if err != nil {
		return at, err
	}
	ash := a.Shape()
	if len(ash) != len(ext) {
		return at, fmt.Errorf("h5: chunk rank mismatch: array %v, extent %v", ash, ext)
	}
	for i := range ext {
		if ash[i] != ext[i] {
			return at, fmt.Errorf("h5: chunk %v shape %v, want %v", idx, ash, ext)
		}
	}
	elems := chunkElems(d.meta.Chunks)
	var src []float64
	var staged *[]float64
	if a.Size() == elems && a.IsContiguous() {
		// Interior chunk from a contiguous array: encode straight from
		// the caller's buffer, no staging copy at all.
		src = a.Data()
	} else {
		staged = getFloatBuf(elems)
		buf := *staged
		for i := range buf {
			buf[i] = 0 // edge chunks are stored zero-padded
		}
		full := ndarray.FromSlice(buf, d.meta.Chunks...)
		ranges := make([]ndarray.Range, len(ext))
		for i, e := range ext {
			ranges[i] = ndarray.Range{Start: 0, Stop: e}
		}
		full.Slice(ranges...).CopyFrom(a)
		src = buf
	}
	rawp := getByteBuf(len(src) * bytesPerElem)
	raw := *rawp
	encodeFloats(raw, src)
	end, werr := d.file.fs.WriteAtCost(d.file.path, d.chunkOffset(idx), raw,
		int64(len(raw))*d.sizeScale(), at)
	bytePool.Put(rawp) // WriteAtCost copied raw into file storage
	if staged != nil {
		floatPool.Put(staged)
	}
	return end, werr
}

// ReadChunk loads the chunk at idx, trimmed to its in-bounds extent.
func (d *Dataset) ReadChunk(idx []int, at vtime.Time) (*ndarray.Array, vtime.Time, error) {
	ext, err := d.chunkExtent(idx)
	if err != nil {
		return nil, at, err
	}
	elems := chunkElems(d.meta.Chunks)
	nbytes := int64(elems) * bytesPerElem
	rawp := getByteBuf(int(nbytes))
	raw, end, err := d.file.fs.ReadAtCostBuf(d.file.path, d.chunkOffset(idx), nbytes,
		nbytes*d.sizeScale(), *rawp, at)
	if err != nil {
		bytePool.Put(rawp)
		return nil, at, err
	}
	full := true
	for i, e := range ext {
		if e != d.meta.Chunks[i] {
			full = false
			break
		}
	}
	if full {
		// Interior chunk: decode directly into the result buffer (it is
		// retained by the caller, so only the byte staging is pooled).
		out := make([]float64, elems)
		decodeFloats(out, raw)
		bytePool.Put(rawp)
		return ndarray.FromSlice(out, d.meta.Chunks...), end, nil
	}
	staged := getFloatBuf(elems)
	decodeFloats(*staged, raw)
	bytePool.Put(rawp)
	fullArr := ndarray.FromSlice(*staged, d.meta.Chunks...)
	ranges := make([]ndarray.Range, len(ext))
	for i, e := range ext {
		ranges[i] = ndarray.Range{Start: 0, Stop: e}
	}
	trimmed := fullArr.Slice(ranges...).Copy()
	floatPool.Put(staged)
	return trimmed, end, nil
}

// encodeFloats serializes xs into out, which must be len(xs)*8 bytes.
func encodeFloats(out []byte, xs []float64) {
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[i*bytesPerElem:], math.Float64bits(x))
	}
}

// decodeFloats deserializes raw into out, which must hold len(raw)/8
// elements.
func decodeFloats(out []float64, raw []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*bytesPerElem:]))
	}
}
