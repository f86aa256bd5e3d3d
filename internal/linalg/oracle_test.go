package linalg

import (
	"math"

	"deisago/internal/ndarray"
)

// The test oracles for SVD: a factorisation is checked by multiplying it
// back out with a naive product and by the orthonormality of its factors.

// matMul is the naive (m×k)·(k×n) product.
func matMul(a, b *ndarray.Array) *ndarray.Array {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := ndarray.New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

// norm returns the Frobenius norm.
func norm(a *ndarray.Array) float64 {
	var s float64
	for _, v := range a.Copy().Data() {
		s += v * v
	}
	return math.Sqrt(s)
}

// Reconstruct returns U·diag(S)·Vᵀ.
func Reconstruct(u *ndarray.Array, s []float64, v *ndarray.Array) *ndarray.Array {
	k := len(s)
	us := ndarray.New(u.Dim(0), k)
	for i := 0; i < u.Dim(0); i++ {
		for j := 0; j < k; j++ {
			us.Set(u.At(i, j)*s[j], i, j)
		}
	}
	return matMul(us, v.Transpose())
}

// IsOrthonormalCols reports whether the columns of a are orthonormal
// within tol.
func IsOrthonormalCols(a *ndarray.Array, tol float64) bool {
	gram := matMul(a.Transpose(), a)
	n := gram.Dim(0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(gram.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}
