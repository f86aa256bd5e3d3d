// Package ndarray implements a dense, strided, float64 n-dimensional
// array. It is the in-memory data container for simulation blocks, Dask
// chunks, and the ML algorithms in this repository — the role NumPy plays
// in the original Python system.
//
// Arrays use row-major (C) layout by default. Slice and Transpose return
// views that share the underlying buffer; Contiguous materializes a view
// into a fresh row-major array.
package ndarray

import (
	"fmt"
	"math"
)

// Array is a strided view over a float64 buffer.
type Array struct {
	shape   []int
	strides []int // element (not byte) strides
	data    []float64
	offset  int
}

// New returns a zero-filled array of the given shape. A zero-dimensional
// array (no arguments) holds a single scalar.
func New(shape ...int) *Array {
	n := checkShape(shape)
	return fromBuffer(make([]float64, n), append([]int(nil), shape...))
}

// FromSlice wraps data in an array of the given shape. The buffer is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float64, shape ...int) *Array {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("ndarray: buffer length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return fromBuffer(data, append([]int(nil), shape...))
}

func fromBuffer(data []float64, shape []int) *Array {
	return &Array{shape: shape, strides: contiguousStrides(shape), data: data}
}

func checkShape(shape []int) int {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("ndarray: negative dimension in shape %v", shape))
		}
		n *= s
	}
	return n
}

func contiguousStrides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		st[i] = acc
		acc *= shape[i]
	}
	return st
}

// Shape returns a copy of the array's shape.
func (a *Array) Shape() []int { return append([]int(nil), a.shape...) }

// NDim returns the number of dimensions.
func (a *Array) NDim() int { return len(a.shape) }

// Size returns the total number of elements.
func (a *Array) Size() int { return checkShape(a.shape) }

// Dim returns the length of dimension i.
func (a *Array) Dim(i int) int { return a.shape[i] }

// IsContiguous reports whether the view is row-major contiguous with
// offset 0 covering its whole buffer region. It allocates nothing — it
// is called by Data() inside kernel hot paths.
func (a *Array) IsContiguous() bool {
	acc := 1
	for i := len(a.shape) - 1; i >= 0; i-- {
		if a.shape[i] > 1 && a.strides[i] != acc {
			return false
		}
		acc *= a.shape[i]
	}
	return true
}

func (a *Array) flatIndex(idx []int) int {
	if len(idx) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: %d indices for %d-d array", len(idx), len(a.shape)))
	}
	p := a.offset
	for i, x := range idx {
		if x < 0 || x >= a.shape[i] {
			panic(fmt.Sprintf("ndarray: index %d out of range [0,%d) in dim %d", x, a.shape[i], i))
		}
		p += x * a.strides[i]
	}
	return p
}

// At returns the element at the given indices.
func (a *Array) At(idx ...int) float64 { return a.data[a.flatIndex(idx)] }

// Set stores v at the given indices.
func (a *Array) Set(v float64, idx ...int) { a.data[a.flatIndex(idx)] = v }

// Data returns the underlying buffer when the array is contiguous; it
// panics otherwise. The returned slice aliases the array.
func (a *Array) Data() []float64 {
	if !a.IsContiguous() {
		panic("ndarray: Data on non-contiguous view; call Contiguous first")
	}
	return a.data[a.offset : a.offset+a.Size()]
}

// Fill sets every element of the array (or view) to v.
func (a *Array) Fill(v float64) {
	a.forEachRun(func(base, stride, count int) {
		if stride == 1 {
			row := a.data[base : base+count]
			for i := range row {
				row[i] = v
			}
			return
		}
		for i, p := 0, base; i < count; i, p = i+1, p+stride {
			a.data[p] = v
		}
	})
}

// Copy returns a fresh contiguous array with the same contents.
func (a *Array) Copy() *Array {
	out := New(a.shape...)
	buf := out.data
	i := 0
	a.forEachRun(func(base, stride, count int) {
		if stride == 1 {
			copy(buf[i:i+count], a.data[base:base+count])
			i += count
			return
		}
		for p := base; count > 0; count, p, i = count-1, p+stride, i+1 {
			buf[i] = a.data[p]
		}
	})
	return out
}

// Contiguous returns the array itself if contiguous, or a contiguous copy.
func (a *Array) Contiguous() *Array {
	if a.IsContiguous() {
		return a
	}
	return a.Copy()
}

// Reshape returns a view (when possible) or copy with a new shape holding
// the same elements in row-major order. One dimension may be -1 to be
// inferred.
func (a *Array) Reshape(shape ...int) *Array {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, s := range shape {
		if s == -1 {
			if infer != -1 {
				panic("ndarray: at most one -1 dimension in Reshape")
			}
			infer = i
		} else {
			known *= s
		}
	}
	if infer != -1 {
		if known == 0 || a.Size()%known != 0 {
			panic(fmt.Sprintf("ndarray: cannot infer dimension reshaping %v to %v", a.shape, shape))
		}
		shape[infer] = a.Size() / known
	}
	if checkShape(shape) != a.Size() {
		panic(fmt.Sprintf("ndarray: cannot reshape %v (%d elems) to %v", a.shape, a.Size(), shape))
	}
	c := a.Contiguous()
	return &Array{shape: shape, strides: contiguousStrides(shape), data: c.data, offset: c.offset}
}

// Transpose returns a view with permuted dimensions. With no arguments the
// dimension order is reversed.
func (a *Array) Transpose(perm ...int) *Array {
	if len(perm) == 0 {
		perm = make([]int, len(a.shape))
		for i := range perm {
			perm[i] = len(a.shape) - 1 - i
		}
	}
	if len(perm) != len(a.shape) {
		panic("ndarray: permutation length mismatch")
	}
	seen := make([]bool, len(perm))
	shape := make([]int, len(perm))
	strides := make([]int, len(perm))
	for i, p := range perm {
		if p < 0 || p >= len(a.shape) || seen[p] {
			panic(fmt.Sprintf("ndarray: bad permutation %v", perm))
		}
		seen[p] = true
		shape[i] = a.shape[p]
		strides[i] = a.strides[p]
	}
	return &Array{shape: shape, strides: strides, data: a.data, offset: a.offset}
}

// Range selects [Start, Stop) in one dimension.
type Range struct {
	Start, Stop int
}

// All returns a Range covering a whole dimension of length n.
func All(n int) Range { return Range{0, n} }

// Len returns the range's length.
func (r Range) Len() int { return r.Stop - r.Start }

// Slice returns a view restricted to the given half-open ranges, one per
// dimension.
func (a *Array) Slice(ranges ...Range) *Array {
	if len(ranges) != len(a.shape) {
		panic(fmt.Sprintf("ndarray: %d ranges for %d-d array", len(ranges), len(a.shape)))
	}
	out := &Array{
		shape:   make([]int, len(ranges)),
		strides: append([]int(nil), a.strides...),
		data:    a.data,
		offset:  a.offset,
	}
	for i, r := range ranges {
		if r.Start < 0 || r.Stop > a.shape[i] || r.Start > r.Stop {
			panic(fmt.Sprintf("ndarray: range [%d,%d) invalid for dim %d of length %d", r.Start, r.Stop, i, a.shape[i]))
		}
		out.offset += r.Start * a.strides[i]
		out.shape[i] = r.Len()
	}
	return out
}

func sameShape(a, b *Array) {
	if len(a.shape) != len(b.shape) {
		panic(fmt.Sprintf("ndarray: shape mismatch %v vs %v", a.shape, b.shape))
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			panic(fmt.Sprintf("ndarray: shape mismatch %v vs %v", a.shape, b.shape))
		}
	}
}

// Scale returns a copy of the array with every element multiplied by s.
func (a *Array) Scale(s float64) *Array {
	out := a.Copy()
	buf := out.data
	ParallelFor(len(buf), zipGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf[i] *= s
		}
	})
	return out
}

// Sum returns the sum of all elements, accumulated in row-major order
// (the same order for contiguous and strided inputs, so views sum
// bit-identically to their materialized copies).
func (a *Array) Sum() float64 {
	var s float64
	a.forEachRun(func(base, stride, count int) {
		if stride == 1 {
			for _, v := range a.data[base : base+count] {
				s += v
			}
			return
		}
		for i, p := 0, base; i < count; i, p = i+1, p+stride {
			s += a.data[p]
		}
	})
	return s
}

// SumAxis sums over one dimension, returning an array of rank n-1.
func (a *Array) SumAxis(axis int) *Array {
	return a.reduceAxis(axis, 0, func(acc, x float64) float64 { return acc + x })
}

// MeanAxis averages over one dimension.
func (a *Array) MeanAxis(axis int) *Array {
	n := a.shape[axis]
	out := a.SumAxis(axis)
	if n == 0 {
		return out
	}
	return out.Scale(1 / float64(n))
}

// MaxAxis reduces one dimension with max.
func (a *Array) MaxAxis(axis int) *Array {
	return a.reduceAxis(axis, math.Inf(-1), math.Max)
}

// MinAxis reduces one dimension with min.
func (a *Array) MinAxis(axis int) *Array {
	return a.reduceAxis(axis, math.Inf(1), math.Min)
}

func (a *Array) reduceAxis(axis int, init float64, f func(acc, x float64) float64) *Array {
	if axis < 0 || axis >= len(a.shape) {
		panic(fmt.Sprintf("ndarray: axis %d out of range for rank %d", axis, len(a.shape)))
	}
	outShape := make([]int, 0, len(a.shape)-1)
	outStrides := make([]int, 0, len(a.shape)-1)
	for i, s := range a.shape {
		if i != axis {
			outShape = append(outShape, s)
			outStrides = append(outStrides, a.strides[i])
		}
	}
	out := New(outShape...)
	od := out.data
	for i := range od {
		od[i] = init
	}
	alen, astr := a.shape[axis], a.strides[axis]
	if alen == 0 || len(od) == 0 {
		return out
	}
	// View a as (non-axis dims, axis): walk output positions in row-major
	// order with an incremental base offset and fold the axis innermost.
	// Each output element accumulates in ascending axis order — the same
	// per-element order as a full row-major sweep.
	idx := make([]int, len(outShape))
	base := a.offset
	for i := range od {
		acc := od[i]
		for k, p := 0, base; k < alen; k, p = k+1, p+astr {
			acc = f(acc, a.data[p])
		}
		od[i] = acc
		d := len(idx) - 1
		for ; d >= 0; d-- {
			idx[d]++
			base += outStrides[d]
			if idx[d] < outShape[d] {
				break
			}
			base -= outShape[d] * outStrides[d]
			idx[d] = 0
		}
	}
	return out
}

// Concat concatenates arrays along an existing axis.
func Concat(axis int, arrays ...*Array) *Array {
	if len(arrays) == 0 {
		panic("ndarray: Concat of nothing")
	}
	rank := arrays[0].NDim()
	if axis < 0 || axis >= rank {
		panic(fmt.Sprintf("ndarray: Concat axis %d out of range for rank %d", axis, rank))
	}
	outShape := arrays[0].Shape()
	for _, a := range arrays[1:] {
		if a.NDim() != rank {
			panic("ndarray: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d == axis {
				continue
			}
			if a.shape[d] != outShape[d] {
				panic(fmt.Sprintf("ndarray: Concat shape mismatch in dim %d", d))
			}
		}
		outShape[axis] += a.shape[axis]
	}
	out := New(outShape...)
	at := 0
	for _, a := range arrays {
		ranges := make([]Range, rank)
		for d := 0; d < rank; d++ {
			ranges[d] = All(outShape[d])
		}
		ranges[axis] = Range{at, at + a.shape[axis]}
		out.Slice(ranges...).CopyFrom(a)
		at += a.shape[axis]
	}
	return out
}

// CopyFrom copies src's elements into the (possibly strided) destination
// view. Shapes must match.
func (a *Array) CopyFrom(src *Array) {
	sameShape(a, src)
	forEachRun2(a, src, func(abase, sbase, astride, sstride, count int) {
		if astride == 1 && sstride == 1 {
			copy(a.data[abase:abase+count], src.data[sbase:sbase+count])
			return
		}
		for k := 0; k < count; k++ {
			a.data[abase+k*astride] = src.data[sbase+k*sstride]
		}
	})
}

// Equal reports exact elementwise equality of shape and contents.
func Equal(a, b *Array) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	eq := true
	forEachRun2(a, b, func(abase, bbase, astride, bstride, count int) {
		if !eq {
			return
		}
		for k := 0; k < count; k++ {
			if a.data[abase+k*astride] != b.data[bbase+k*bstride] {
				eq = false
				return
			}
		}
	})
	return eq
}

// AllClose reports elementwise |a-b| <= tol for arrays of equal shape.
func AllClose(a, b *Array, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	close := true
	forEachRun2(a, b, func(abase, bbase, astride, bstride, count int) {
		if !close {
			return
		}
		for k := 0; k < count; k++ {
			x := a.data[abase+k*astride]
			y := b.data[bbase+k*bstride]
			if math.Abs(x-y) > tol || math.IsNaN(x) != math.IsNaN(y) {
				close = false
				return
			}
		}
	})
	return close
}
