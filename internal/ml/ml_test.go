package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/linalg"
	"deisago/internal/ndarray"
)

// lowRankData generates n×f data lying (exactly) in an r-dimensional
// subspace, plus a fixed offset.
func lowRankData(rng *rand.Rand, n, f, r int) *ndarray.Array {
	basis := ndarray.New(r, f)
	for i := 0; i < r; i++ {
		for j := 0; j < f; j++ {
			basis.Set(rng.NormFloat64(), i, j)
		}
	}
	coef := ndarray.New(n, r)
	for i := 0; i < n; i++ {
		for j := 0; j < r; j++ {
			coef.Set(rng.NormFloat64()*float64(r-j), i, j)
		}
	}
	x := matMul(coef, basis)
	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			x.Set(x.At(i, j)+float64(j), i, j)
		}
	}
	return x
}

func TestPCAKnownDirection(t *testing.T) {
	// Points on the line y = 2x: first component is (1,2)/sqrt(5).
	x := ndarray.FromSlice([]float64{
		-1, -2,
		0, 0,
		1, 2,
		2, 4,
	}, 4, 2)
	p := NewPCA(1)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	want := []float64{1 / math.Sqrt(5), 2 / math.Sqrt(5)}
	for j, w := range want {
		if math.Abs(p.Components.At(0, j)-w) > 1e-10 {
			t.Fatalf("component = [%v %v], want %v", p.Components.At(0, 0), p.Components.At(0, 1), want)
		}
	}
	// Perfectly 1-d data: first component explains everything.
	if math.Abs(p.ExplainedVarianceRatio[0]-1) > 1e-10 {
		t.Fatalf("ratio = %v, want 1", p.ExplainedVarianceRatio[0])
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankData(rng, 40, 8, 8)
	p := NewPCA(4)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	if !isOrthonormalCols(p.Components.Transpose().Copy(), 1e-9) {
		t.Fatal("components not orthonormal")
	}
	for i := 1; i < 4; i++ {
		if p.SingularValues[i] > p.SingularValues[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", p.SingularValues)
		}
	}
}

func TestPCATransformVariance(t *testing.T) {
	// Variance of the i-th transformed coordinate equals the i-th
	// explained variance.
	rng := rand.New(rand.NewSource(2))
	x := lowRankData(rng, 60, 6, 6)
	p := NewPCA(3)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	tr, err := p.Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Dim(0)
	for c := 0; c < 3; c++ {
		col := tr.Slice(ndarray.All(n), ndarray.Range{Start: c, Stop: c + 1}).Copy()
		mean := col.Sum() / float64(n)
		varc := 0.0
		for i := 0; i < n; i++ {
			d := col.At(i, 0) - mean
			varc += d * d
		}
		varc /= float64(n - 1)
		if math.Abs(varc-p.ExplainedVariance[c]) > 1e-8*(1+p.ExplainedVariance[c]) {
			t.Fatalf("transformed var[%d] = %v, explained = %v", c, varc, p.ExplainedVariance[c])
		}
	}
}

func TestPCAErrors(t *testing.T) {
	p := NewPCA(3)
	if err := p.Fit(ndarray.New(2, 2)); err == nil {
		t.Fatal("k > min(n,f) accepted")
	}
	if err := p.Fit(ndarray.New(1, 5)); err == nil {
		t.Fatal("single sample accepted")
	}
	if err := p.Fit(ndarray.New(4)); err == nil {
		t.Fatal("1-d input accepted")
	}
	if _, err := NewPCA(1).Transform(ndarray.New(2, 2)); err == nil {
		t.Fatal("transform before fit accepted")
	}
}

func TestNewPCAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPCA(0)
}

func TestIPCASingleBatchMatchesPCA(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := lowRankData(rng, 30, 6, 6)
	p := NewPCA(2)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	ip := NewIncrementalPCA(2)
	if err := ip.PartialFit(x); err != nil {
		t.Fatal(err)
	}
	if !ndarray.AllClose(p.Components, ip.Components, 1e-8) {
		t.Fatal("single-batch IPCA components differ from PCA")
	}
	for i := range p.SingularValues {
		if math.Abs(p.SingularValues[i]-ip.SingularValues[i]) > 1e-8 {
			t.Fatalf("singular values differ: %v vs %v", p.SingularValues, ip.SingularValues)
		}
	}
}

func TestIPCAMatchesPCAOnLowRankData(t *testing.T) {
	// When the data is exactly rank-k, IPCA with k components loses no
	// information and recovers the PCA subspace across batches.
	rng := rand.New(rand.NewSource(4))
	x := lowRankData(rng, 48, 8, 2)
	p := NewPCA(2)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	ip := NewIncrementalPCA(2)
	if err := ip.Fit(x, 12); err != nil {
		t.Fatal(err)
	}
	if !ndarray.AllClose(p.Components, ip.Components, 1e-6) {
		t.Fatalf("IPCA components diverged:\nPCA  %v\nIPCA %v", p.Components, ip.Components)
	}
}

func TestIPCAMeanVarMatchFullData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := lowRankData(rng, 50, 5, 5)
	ip := NewIncrementalPCA(2)
	if err := ip.Fit(x, 7); err != nil { // uneven final batch
		t.Fatal(err)
	}
	wantMean := x.MeanAxis(0)
	for j := 0; j < 5; j++ {
		if math.Abs(ip.Mean[j]-wantMean.At(j)) > 1e-9 {
			t.Fatalf("incremental mean[%d] = %v, want %v", j, ip.Mean[j], wantMean.At(j))
		}
		// Biased variance over all samples.
		varj := 0.0
		for i := 0; i < 50; i++ {
			d := x.At(i, j) - wantMean.At(j)
			varj += d * d
		}
		varj /= 50
		if math.Abs(ip.Var[j]-varj) > 1e-8*(1+varj) {
			t.Fatalf("incremental var[%d] = %v, want %v", j, ip.Var[j], varj)
		}
	}
	if ip.NSamplesSeen != 50 {
		t.Fatalf("NSamplesSeen = %d", ip.NSamplesSeen)
	}
}

func TestIPCAApproximatesPCAWithNoise(t *testing.T) {
	// With noisy (full-rank) data IPCA is approximate; the dominant
	// subspace should still align (|cos| of principal angles near 1).
	rng := rand.New(rand.NewSource(6))
	x := lowRankData(rng, 200, 10, 3)
	// Add small noise.
	for i := 0; i < x.Dim(0); i++ {
		for j := 0; j < x.Dim(1); j++ {
			x.Set(x.At(i, j)+0.01*rng.NormFloat64(), i, j)
		}
	}
	p := NewPCA(2)
	if err := p.Fit(x); err != nil {
		t.Fatal(err)
	}
	ip := NewIncrementalPCA(2)
	if err := ip.Fit(x, 25); err != nil {
		t.Fatal(err)
	}
	// Overlap matrix between subspaces should be near-orthogonal:
	// singular values of C_pca · C_ipcaᵀ near 1.
	overlap := matMul(p.Components, ip.Components.Transpose())
	_, s, _ := linalg.SVD(overlap)
	for _, sv := range s {
		if sv < 0.99 {
			t.Fatalf("subspace overlap singular values %v, want ≈1", s)
		}
	}
}

func TestIPCAClone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := lowRankData(rng, 20, 4, 4)
	ip := NewIncrementalPCA(2)
	if err := ip.PartialFit(x); err != nil {
		t.Fatal(err)
	}
	cl := ip.Clone()
	if err := cl.PartialFit(x); err != nil {
		t.Fatal(err)
	}
	if cl.NSamplesSeen != 40 || ip.NSamplesSeen != 20 {
		t.Fatal("Clone shares state with original")
	}
	cl.Components.Set(99, 0, 0)
	if ip.Components.At(0, 0) == 99 {
		t.Fatal("Clone aliases Components")
	}
}

func TestIPCASizeBytes(t *testing.T) {
	ip := NewIncrementalPCA(2)
	before := ip.SizeBytes()
	rng := rand.New(rand.NewSource(8))
	if err := ip.PartialFit(lowRankData(rng, 10, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if ip.SizeBytes() <= before {
		t.Fatal("SizeBytes did not grow after fit")
	}
}

func TestIPCAErrors(t *testing.T) {
	ip := NewIncrementalPCA(5)
	if err := ip.PartialFit(ndarray.New(3, 3)); err == nil {
		t.Fatal("first batch smaller than k accepted")
	}
	ip2 := NewIncrementalPCA(2)
	rng := rand.New(rand.NewSource(9))
	if err := ip2.PartialFit(lowRankData(rng, 10, 4, 4)); err != nil {
		t.Fatal(err)
	}
	if err := ip2.PartialFit(ndarray.New(10, 5)); err == nil {
		t.Fatal("feature-count change accepted")
	}
	if err := ip2.Fit(ndarray.New(4, 4), 0); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if err := ip2.PartialFit(ndarray.New(8)); err == nil {
		t.Fatal("1-d batch accepted")
	}
}

func TestExplainedVarianceRatioBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := lowRankData(rng, 60, 6, 6)
	ip := NewIncrementalPCA(3)
	if err := ip.Fit(x, 15); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, r := range ip.ExplainedVarianceRatio {
		if r < 0 || r > 1+1e-9 {
			t.Fatalf("ratio out of range: %v", ip.ExplainedVarianceRatio)
		}
		sum += r
	}
	if sum > 1+1e-9 {
		t.Fatalf("ratios sum to %v > 1", sum)
	}
}

// Property: for random low-rank data and any batch split, the IPCA mean
// equals the full mean and singular values are sorted non-negative.
func TestIPCAQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 10
		feat := rng.Intn(5) + 3
		x := lowRankData(rng, n, feat, min(3, feat))
		ip := NewIncrementalPCA(2)
		bs := rng.Intn(n-3) + 3
		if err := ip.Fit(x, bs); err != nil {
			return false
		}
		wantMean := x.MeanAxis(0)
		for j := 0; j < feat; j++ {
			if math.Abs(ip.Mean[j]-wantMean.At(j)) > 1e-7*(1+math.Abs(wantMean.At(j))) {
				return false
			}
		}
		for i, s := range ip.SingularValues {
			if s < 0 || (i > 0 && s > ip.SingularValues[i-1]+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDFlipDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := lowRankData(rng, 30, 5, 5)
	p1, p2 := NewPCA(2), NewPCA(2)
	if err := p1.Fit(x); err != nil {
		t.Fatal(err)
	}
	if err := p2.Fit(x.Copy()); err != nil {
		t.Fatal(err)
	}
	if !ndarray.Equal(p1.Components, p2.Components) {
		t.Fatal("PCA not deterministic")
	}
	// Each component row's max-|v| entry is positive.
	for r := 0; r < 2; r++ {
		maxAbs, val := 0.0, 0.0
		for j := 0; j < 5; j++ {
			if a := math.Abs(p1.Components.At(r, j)); a > maxAbs {
				maxAbs, val = a, p1.Components.At(r, j)
			}
		}
		if val < 0 {
			t.Fatal("svdFlip convention violated")
		}
	}
}

func TestIncrementalMeanVarFirstBatch(t *testing.T) {
	x := ndarray.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	mean, variance, n := incrementalMeanVar(x, nil, nil, 0)
	if n != 2 || mean[0] != 2 || mean[1] != 3 {
		t.Fatalf("mean = %v, n = %d", mean, n)
	}
	if variance[0] != 1 || variance[1] != 1 {
		t.Fatalf("var = %v", variance)
	}
}

func BenchmarkPartialFit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := lowRankData(rng, 64, 64, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip := NewIncrementalPCA(2)
		if err := ip.PartialFit(x); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleIncrementalPCA() {
	// Data on the line y = 3x, fed in two batches.
	x := ndarray.FromSlice([]float64{
		-2, -6,
		-1, -3,
		1, 3,
		2, 6,
	}, 4, 2)
	ip := NewIncrementalPCA(1)
	_ = ip.Fit(x, 2)
	fmt.Printf("component ~ [%.3f %.3f]\n", ip.Components.At(0, 0), ip.Components.At(0, 1))
	// Output: component ~ [0.316 0.949]
}
