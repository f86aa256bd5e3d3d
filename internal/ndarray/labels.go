package ndarray

import "fmt"

// Labeled pairs an Array with axis names, playing the role xarray plays in
// the paper's multidimensional IPCA: folding named sample dimensions and
// named feature dimensions of an n-d array into a 2-D samples×features
// matrix (§3.2).
type Labeled struct {
	Array *Array
	Dims  []string
}

// NewLabeled attaches dimension names to an array. The number of names
// must equal the array's rank and names must be unique.
func NewLabeled(a *Array, dims ...string) *Labeled {
	if len(dims) != a.NDim() {
		panic(fmt.Sprintf("ndarray: %d dim labels for rank-%d array", len(dims), a.NDim()))
	}
	seen := map[string]bool{}
	for _, d := range dims {
		if seen[d] {
			panic(fmt.Sprintf("ndarray: duplicate dim label %q", d))
		}
		seen[d] = true
	}
	return &Labeled{Array: a, Dims: append([]string(nil), dims...)}
}

// axisOf returns the axis index of a named dimension.
func (l *Labeled) axisOf(dim string) int {
	for i, d := range l.Dims {
		if d == dim {
			return i
		}
	}
	panic(fmt.Sprintf("ndarray: no dimension named %q in %v", dim, l.Dims))
}

// StackToMatrix folds the array into a 2-D samples×features matrix: the
// sample dims (in the given order) become the row index, the feature dims
// become the column index. Every dimension of the array must appear in
// exactly one of the two lists.
func (l *Labeled) StackToMatrix(sampleDims, featureDims []string) *Array {
	if len(sampleDims)+len(featureDims) != len(l.Dims) {
		panic(fmt.Sprintf("ndarray: StackToMatrix needs all dims partitioned; have %v, got samples=%v features=%v",
			l.Dims, sampleDims, featureDims))
	}
	perm := make([]int, 0, len(l.Dims))
	rows, cols := 1, 1
	for _, d := range sampleDims {
		ax := l.axisOf(d)
		perm = append(perm, ax)
		rows *= l.Array.Dim(ax)
	}
	for _, d := range featureDims {
		ax := l.axisOf(d)
		perm = append(perm, ax)
		cols *= l.Array.Dim(ax)
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if seen[p] {
			panic("ndarray: StackToMatrix dim listed twice")
		}
		seen[p] = true
	}
	return l.Array.Transpose(perm...).Reshape(rows, cols)
}
