package linalg

import (
	"math/rand"
	"testing"

	"deisago/internal/ndarray"
)

func randMat(rng *rand.Rand, m, n int) *ndarray.Array {
	a := ndarray.New(m, n)
	d := a.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return a
}

// TestSVDDeterminismAcrossWorkers is the determinism guard for the
// parallel Jacobi sweeps: the tournament-ordered rotations on disjoint
// column pairs must give bit-identical U, S, V for every worker count
// (protects the bit-equal PCA components invariant, DESIGN §6).
func TestSVDDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][2]int{{16, 16}, {200, 120}, {120, 200}, {257, 64}}
	for _, sh := range shapes {
		a := randMat(rng, sh[0], sh[1])
		prev := ndarray.SetWorkers(1)
		u1, s1, v1 := SVD(a)
		ndarray.SetWorkers(prev)
		for _, w := range []int{2, 8} {
			prev := ndarray.SetWorkers(w)
			u2, s2, v2 := SVD(a)
			ndarray.SetWorkers(prev)
			if !ndarray.Equal(u1, u2) || !ndarray.Equal(v1, v2) {
				t.Fatalf("%dx%d: SVD singular vectors differ with %d workers", sh[0], sh[1], w)
			}
			for i := range s1 {
				if s1[i] != s2[i] {
					t.Fatalf("%dx%d: singular value %d differs with %d workers", sh[0], sh[1], i, w)
				}
			}
		}
	}
}

// TestSVDTournamentQuality re-checks reconstruction and orthonormality
// on shapes whose column count exercises odd/even tournament schedules.
func TestSVDTournamentQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range [][2]int{{9, 7}, {40, 31}, {33, 33}, {64, 1}, {5, 5}} {
		a := randMat(rng, sh[0], sh[1])
		u, s, v := SVD(a)
		if !IsOrthonormalCols(u, 1e-8) {
			t.Fatalf("%v: U not orthonormal", sh)
		}
		if !IsOrthonormalCols(v, 1e-8) {
			t.Fatalf("%v: V not orthonormal", sh)
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-12 {
				t.Fatalf("%v: singular values not sorted: %v", sh, s)
			}
		}
		if !ndarray.AllClose(Reconstruct(u, s, v), a, 1e-8) {
			t.Fatalf("%v: U·S·Vᵀ does not reconstruct A", sh)
		}
	}
}

func BenchmarkKernelSVD128x64(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randMat(rng, 128, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SVD(x)
	}
}
