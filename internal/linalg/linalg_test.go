package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/ndarray"
)

func randomMatrix(rng *rand.Rand, m, n int) *ndarray.Array {
	a := ndarray.New(m, n)
	d := a.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return a
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Fatalf("Eye(3)[%d,%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := ndarray.FromSlice([]float64{
		3, 0,
		0, 2,
	}, 2, 2)
	_, s, _ := SVD(a)
	if math.Abs(s[0]-3) > 1e-12 || math.Abs(s[1]-2) > 1e-12 {
		t.Fatalf("singular values %v, want [3 2]", s)
	}
}

func TestSVDKnownRankOne(t *testing.T) {
	// A = outer([1,2,3], [4,5]) has single singular value |u|·|v|.
	u := []float64{1, 2, 3}
	v := []float64{4, 5}
	a := ndarray.New(3, 2)
	for i := range u {
		for j := range v {
			a.Set(u[i]*v[j], i, j)
		}
	}
	_, s, _ := SVD(a)
	want := math.Sqrt(1+4+9) * math.Sqrt(16+25)
	if math.Abs(s[0]-want) > 1e-10 {
		t.Fatalf("s[0] = %v, want %v", s[0], want)
	}
	if s[1] > 1e-10 {
		t.Fatalf("s[1] = %v, want 0", s[1])
	}
}

func checkSVD(t *testing.T, a *ndarray.Array) {
	t.Helper()
	u, s, v := SVD(a)
	m, n := a.Dim(0), a.Dim(1)
	k := m
	if n < k {
		k = n
	}
	if u.Dim(0) != m || u.Dim(1) != k || v.Dim(0) != n || v.Dim(1) != k || len(s) != k {
		t.Fatalf("SVD shapes: U=%v S=%d V=%v for A %dx%d", u.Shape(), len(s), v.Shape(), m, n)
	}
	for i := 0; i < k; i++ {
		if s[i] < 0 {
			t.Fatalf("negative singular value %v", s[i])
		}
		if i > 0 && s[i] > s[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", s)
		}
	}
	if !IsOrthonormalCols(u, 1e-9) {
		t.Fatal("U not orthonormal")
	}
	if !IsOrthonormalCols(v, 1e-9) {
		t.Fatal("V not orthonormal")
	}
	if !ndarray.AllClose(Reconstruct(u, s, v), a, 1e-8*(1+norm(a))) {
		t.Fatal("U·S·Vᵀ != A")
	}
}

func TestSVDRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][2]int{{5, 5}, {10, 4}, {4, 10}, {1, 7}, {7, 1}, {20, 20}} {
		checkSVD(t, randomMatrix(rng, dims[0], dims[1]))
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Build a 8x6 matrix of rank 3.
	b := randomMatrix(rng, 8, 3)
	c := randomMatrix(rng, 3, 6)
	a := matMul(b, c)
	u, s, v := SVD(a)
	for i := 3; i < 6; i++ {
		if s[i] > 1e-8 {
			t.Fatalf("rank-3 matrix has s[%d] = %v", i, s[i])
		}
	}
	if !ndarray.AllClose(Reconstruct(u, s, v), a, 1e-8) {
		t.Fatal("reconstruction failed for rank-deficient matrix")
	}
	if !IsOrthonormalCols(u, 1e-8) {
		t.Fatal("U not orthonormal after zero-column completion")
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := ndarray.New(4, 3)
	u, s, v := SVD(a)
	for _, x := range s {
		if x != 0 {
			t.Fatalf("zero matrix singular values %v", s)
		}
	}
	if !IsOrthonormalCols(u, 1e-9) || !IsOrthonormalCols(v, 1e-9) {
		t.Fatal("zero-matrix factors not orthonormal")
	}
}

func TestSVDMatchesEigenOfGram(t *testing.T) {
	// Squared singular values must equal eigenvalues of AᵀA; we verify
	// via trace identities: sum s_i^2 == trace(AᵀA) == ||A||_F^2.
	rng := rand.New(rand.NewSource(5))
	a := randomMatrix(rng, 9, 6)
	_, s, _ := SVD(a)
	var sum2 float64
	for _, x := range s {
		sum2 += x * x
	}
	f := norm(a)
	if math.Abs(sum2-f*f) > 1e-9*(1+f*f) {
		t.Fatalf("sum s^2 = %v, ||A||_F^2 = %v", sum2, f*f)
	}
}

// Property: SVD invariants hold for random matrices of random shapes.
func TestSVDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(8) + 1
		n := rng.Intn(8) + 1
		a := randomMatrix(rng, m, n)
		u, s, v := SVD(a)
		if !IsOrthonormalCols(u, 1e-8) || !IsOrthonormalCols(v, 1e-8) {
			return false
		}
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+1e-10 || s[i] < 0 {
				return false
			}
		}
		return ndarray.AllClose(Reconstruct(u, s, v), a, 1e-7*(1+norm(a)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDSingularValuesScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomMatrix(rng, 6, 4)
	_, s1, _ := SVD(a)
	_, s2, _ := SVD(a.Scale(3))
	for i := range s1 {
		if math.Abs(s2[i]-3*s1[i]) > 1e-9*(1+s1[i]) {
			t.Fatalf("scaling law violated: %v vs %v", s1, s2)
		}
	}
}
