package ml

import (
	"math/rand"
	"testing"

	"deisago/internal/ndarray"
)

// TestPCADeterminismAcrossWorkerCounts runs the full PCA and IPCA
// pipelines under kernel worker counts {1, 2, 8} and demands bit-equal
// components, the end-to-end form of the DESIGN §6 invariant: real-core
// parallelism inside task bodies must never change figure inputs.
func TestPCADeterminismAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := ndarray.New(120, 40)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}

	fitBoth := func() (*ndarray.Array, *ndarray.Array) {
		p := NewPCA(5)
		if err := p.Fit(x); err != nil {
			t.Fatal(err)
		}
		ip := NewIncrementalPCA(5)
		if err := ip.Fit(x, 40); err != nil {
			t.Fatal(err)
		}
		return p.Components, ip.Components
	}

	prev := ndarray.SetWorkers(1)
	wantP, wantIP := fitBoth()
	ndarray.SetWorkers(prev)
	for _, w := range []int{2, 8} {
		prev := ndarray.SetWorkers(w)
		gotP, gotIP := fitBoth()
		ndarray.SetWorkers(prev)
		if !ndarray.Equal(wantP, gotP) {
			t.Fatalf("PCA components differ with %d kernel workers", w)
		}
		if !ndarray.Equal(wantIP, gotIP) {
			t.Fatalf("IPCA components differ with %d kernel workers", w)
		}
	}
}
