// Package ml implements the machine-learning stack of the paper's
// evaluation workflow: incremental PCA (IPCA) following the scikit-learn
// algorithm that dask-ml wraps, and the fold task that turns a spatial
// slab into the samples×features matrix a partial_fit consumes.
package ml

import (
	"math"

	"deisago/internal/ndarray"
)

// centerRows returns x - mean (mean broadcast over rows) as a fresh
// contiguous array, using flat row slices instead of per-element At/Set.
func centerRows(x *ndarray.Array, mean []float64) *ndarray.Array {
	n, f := x.Dim(0), x.Dim(1)
	out := x.Copy()
	od := out.Data()
	ndarray.ParallelFor(n, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := od[i*f : (i+1)*f]
			for j, mu := range mean {
				row[j] -= mu
			}
		}
	})
	return out
}

// svdFlip fixes the sign ambiguity of the SVD so results are
// deterministic: each row of vt gets a positive entry of maximum absolute
// value (scikit-learn's u_based_decision=False convention), with u's
// columns flipped to match.
func svdFlip(u, vt *ndarray.Array) {
	k := vt.Dim(0)
	f := vt.Dim(1)
	for r := 0; r < k; r++ {
		maxAbs, sign := 0.0, 1.0
		for j := 0; j < f; j++ {
			v := vt.At(r, j)
			if math.Abs(v) > maxAbs {
				maxAbs = math.Abs(v)
				if v < 0 {
					sign = -1
				} else {
					sign = 1
				}
			}
		}
		if sign < 0 {
			for j := 0; j < f; j++ {
				vt.Set(-vt.At(r, j), r, j)
			}
			if u != nil && r < u.Dim(1) {
				for i := 0; i < u.Dim(0); i++ {
					u.Set(-u.At(i, r), i, r)
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
