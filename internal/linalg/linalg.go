// Package linalg provides the dense linear algebra needed by the ML stack:
// a one-sided Jacobi singular value decomposition. In
// the original system this role is filled by LAPACK via NumPy/scikit-learn;
// here it is implemented from scratch on ndarray so the whole repository
// is stdlib-only.
package linalg

import (
	"math"
	"sync/atomic"

	"deisago/internal/ndarray"
)

// jacobiRotate applies one one-sided Jacobi rotation to columns p and q
// of the m×n matrix ud (and the matching rows of the n×n accumulator
// vd), returning whether a rotation was performed. It reads and writes
// only those two columns, so rotations on disjoint pairs commute exactly
// and may run concurrently.
func jacobiRotate(ud, vd []float64, m, n, p, q int, tol float64) bool {
	var app, aqq, apq float64
	for i := 0; i < m; i++ {
		x := ud[i*n+p]
		y := ud[i*n+q]
		app += x * x
		aqq += y * y
		apq += x * y
	}
	if math.Abs(apq) <= tol*math.Sqrt(app*aqq) || apq == 0 {
		return false
	}
	// Jacobi rotation that zeroes the (p,q) entry of AᵀA.
	tau := (aqq - app) / (2 * apq)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	sn := c * t
	for i := 0; i < m; i++ {
		x := ud[i*n+p]
		y := ud[i*n+q]
		ud[i*n+p] = c*x - sn*y
		ud[i*n+q] = sn*x + c*y
	}
	for i := 0; i < n; i++ {
		x := vd[i*n+p]
		y := vd[i*n+q]
		vd[i*n+p] = c*x - sn*y
		vd[i*n+q] = sn*x + c*y
	}
	return true
}

// Eye returns the n×n identity matrix.
func Eye(n int) *ndarray.Array {
	a := ndarray.New(n, n)
	for i := 0; i < n; i++ {
		a.Set(1, i, i)
	}
	return a
}

// SVD computes the thin singular value decomposition A = U·diag(S)·Vᵀ of
// an m×n matrix using one-sided Jacobi rotations. U is m×k, S has length
// k, V is n×k, with k = min(m, n) and S sorted in non-increasing order.
// Columns of U and V are orthonormal; zero singular values yield
// arbitrary orthonormal-completion columns in U.
func SVD(a *ndarray.Array) (u *ndarray.Array, s []float64, v *ndarray.Array) {
	if a.NDim() != 2 {
		panic("linalg: SVD requires a 2-d array")
	}
	m, n := a.Dim(0), a.Dim(1)
	if m >= n {
		return svdTall(a)
	}
	// A = U S Vᵀ  ⇔  Aᵀ = V S Uᵀ.
	v2, s2, u2 := svdTall(a.Transpose().Copy())
	return u2, s2, v2
}

// svdTall handles m >= n via one-sided Jacobi on the columns of A.
//
// Sweeps use a round-robin tournament ordering: each of the n-1 rounds
// pairs every column with a distinct partner, so the n/2 rotations of a
// round touch disjoint column pairs and can run on separate goroutines.
// Round order and per-rotation arithmetic are fixed, so the result is
// bit-identical for any ndarray.Workers() setting; only the rotation
// *count* (an order-independent integer) is accumulated across a round.
func svdTall(a *ndarray.Array) (u *ndarray.Array, s []float64, v *ndarray.Array) {
	m, n := a.Dim(0), a.Dim(1)
	U := a.Copy()
	V := Eye(n)
	ud := U.Data()
	vd := V.Data()

	col := func(buf []float64, stride, j, i int) float64 { return buf[i*stride+j] }

	// Circle-method schedule over `players` slots (one "bye" slot when n
	// is odd): slot 0 is fixed, the rest rotate; round r pairs slot 0
	// with ring[r] and ring[r+1+t] with ring[r+players-1-t].
	players := n
	if players%2 == 1 {
		players++
	}
	if players < 2 {
		players = 2 // n ≤ 1: no pairs, sweeps are a no-op
	}
	ring := make([]int, players-1)
	for i := range ring {
		ring[i] = i + 1
	}
	pairsP := make([]int, 0, players/2)
	pairsQ := make([]int, 0, players/2)
	// Rotations in a round write disjoint columns; only fan out when the
	// per-round work (≈ 3·m·n flops across n/2 independent pairs) is
	// worth goroutine startup.
	parallel := m*n >= 1<<14

	const maxSweeps = 60
	tol := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var rotations int64
		for round := 0; round < players-1; round++ {
			pairsP = pairsP[:0]
			pairsQ = pairsQ[:0]
			for t := 0; t < players/2; t++ {
				var p, q int
				if t == 0 {
					p, q = 0, ring[(round+players-2)%(players-1)]
				} else {
					p = ring[(round+t-1)%(players-1)]
					q = ring[(round+players-2-t)%(players-1)]
				}
				if p >= n || q >= n { // bye slot on odd n
					continue
				}
				if p > q {
					p, q = q, p
				}
				pairsP = append(pairsP, p)
				pairsQ = append(pairsQ, q)
			}
			rotate := func(lo, hi int) {
				var local int64
				for x := lo; x < hi; x++ {
					if jacobiRotate(ud, vd, m, n, pairsP[x], pairsQ[x], tol) {
						local++
					}
				}
				if local != 0 {
					atomic.AddInt64(&rotations, local)
				}
			}
			if parallel {
				ndarray.ParallelFor(len(pairsP), 1, rotate)
			} else {
				rotate(0, len(pairsP))
			}
		}
		if rotations == 0 {
			break
		}
	}

	// Singular values are column norms of the rotated A; normalize U.
	s = make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			x := col(ud, n, j, i)
			norm += x * x
		}
		s[j] = math.Sqrt(norm)
	}
	// Sort descending, permuting columns of U and V.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[order[j]] > s[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	Us := ndarray.New(m, n)
	Vs := ndarray.New(n, n)
	sorted := make([]float64, n)
	for jj, oj := range order {
		sorted[jj] = s[oj]
		if s[oj] > 0 {
			inv := 1 / s[oj]
			for i := 0; i < m; i++ {
				Us.Set(col(ud, n, oj, i)*inv, i, jj)
			}
		} else {
			// Zero singular value: leave a unit vector orthogonal-ish
			// (best effort; completed below).
			Us.Set(1, jj%m, jj)
		}
		for i := 0; i < n; i++ {
			Vs.Set(col(vd, n, oj, i), i, jj)
		}
	}
	orthonormalizeZeroCols(Us, sorted)
	return Us, sorted, Vs
}

// orthonormalizeZeroCols re-orthonormalizes U columns that correspond to
// zero singular values against the non-zero ones (modified Gram-Schmidt).
func orthonormalizeZeroCols(u *ndarray.Array, s []float64) {
	m, n := u.Dim(0), u.Dim(1)
	for j := 0; j < n; j++ {
		if s[j] > 0 {
			continue
		}
		// Try basis vectors until one survives projection.
		for trial := 0; trial < m; trial++ {
			vec := make([]float64, m)
			vec[(j+trial)%m] = 1
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				var dot float64
				for i := 0; i < m; i++ {
					dot += vec[i] * u.At(i, k)
				}
				for i := 0; i < m; i++ {
					vec[i] -= dot * u.At(i, k)
				}
			}
			var norm float64
			for i := 0; i < m; i++ {
				norm += vec[i] * vec[i]
			}
			norm = math.Sqrt(norm)
			if norm > 1e-8 {
				for i := 0; i < m; i++ {
					u.Set(vec[i]/norm, i, j)
				}
				break
			}
		}
	}
}
