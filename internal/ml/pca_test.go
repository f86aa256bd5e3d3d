package ml

import (
	"fmt"
	"math"

	"deisago/internal/linalg"
	"deisago/internal/ndarray"
)

// PCA is a full-batch principal component analysis (SVD-based), the
// dask_ml.decomposition.PCA equivalent. It is the reference the IPCA
// tests compare against; no production path runs it.
type PCA struct {
	NComponents int

	// Fitted attributes (scikit-learn naming, Go-cased).
	Components             *ndarray.Array // (k × features) rows are components
	SingularValues         []float64
	Mean                   []float64
	ExplainedVariance      []float64
	ExplainedVarianceRatio []float64
	NSamplesSeen           int
}

// NewPCA returns a PCA estimator extracting k components.
func NewPCA(k int) *PCA {
	if k <= 0 {
		panic("ml: NComponents must be positive")
	}
	return &PCA{NComponents: k}
}

// Fit computes the decomposition of X (samples × features).
func (p *PCA) Fit(x *ndarray.Array) error {
	if x.NDim() != 2 {
		return fmt.Errorf("ml: PCA.Fit wants a 2-d samples×features array, got shape %v", x.Shape())
	}
	n, f := x.Dim(0), x.Dim(1)
	if n < 2 {
		return fmt.Errorf("ml: PCA needs at least 2 samples, got %d", n)
	}
	if p.NComponents > min(n, f) {
		return fmt.Errorf("ml: NComponents=%d exceeds min(samples=%d, features=%d)", p.NComponents, n, f)
	}
	mean := x.MeanAxis(0)
	centered := centerRows(x, mean.Data())
	u, s, v := linalg.SVD(centered)
	vt := v.Transpose().Copy() // rows are right singular vectors
	svdFlip(u, vt)

	k := p.NComponents
	p.Mean = mean.Data()
	p.Components = vt.Slice(ndarray.Range{Start: 0, Stop: k}, ndarray.Range{Start: 0, Stop: f}).Copy()
	p.SingularValues = append([]float64(nil), s[:k]...)
	p.NSamplesSeen = n

	totalVar := 0.0
	p.ExplainedVariance = make([]float64, k)
	for i, sv := range s {
		ev := sv * sv / float64(n-1)
		if i < k {
			p.ExplainedVariance[i] = ev
		}
		totalVar += ev
	}
	p.ExplainedVarianceRatio = make([]float64, k)
	if totalVar > 0 {
		for i := range p.ExplainedVarianceRatio {
			p.ExplainedVarianceRatio[i] = p.ExplainedVariance[i] / totalVar
		}
	}
	return nil
}

// Transform projects X onto the fitted components, returning
// (samples × k).
func (p *PCA) Transform(x *ndarray.Array) (*ndarray.Array, error) {
	if p.Components == nil {
		return nil, fmt.Errorf("ml: estimator is not fitted")
	}
	if x.NDim() != 2 || x.Dim(1) != len(p.Mean) {
		return nil, fmt.Errorf("ml: Transform input shape %v does not match %d features", x.Shape(), len(p.Mean))
	}
	return matMul(centerRows(x, p.Mean), p.Components.Transpose()), nil
}

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

// isOrthonormalCols reports whether the columns of a are orthonormal
// within tol.
func isOrthonormalCols(a *ndarray.Array, tol float64) bool {
	gram := matMul(a.Transpose(), a)
	for i := 0; i < gram.Dim(0); i++ {
		for j := 0; j < gram.Dim(1); j++ {
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
