package ndarray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refIter is the seed's generic row-major iterator, kept here as the
// reference the kernel fast paths are checked against.
type refIter struct {
	shape []int
	idx   []int
	first bool
	done  bool
}

func newRefIter(shape []int) *refIter {
	it := &refIter{shape: shape, idx: make([]int, len(shape)), first: true}
	for _, s := range shape {
		if s == 0 {
			it.done = true
		}
	}
	return it
}

func (it *refIter) next() bool {
	if it.done {
		return false
	}
	if it.first {
		it.first = false
		return true
	}
	for d := len(it.shape) - 1; d >= 0; d-- {
		it.idx[d]++
		if it.idx[d] < it.shape[d] {
			return true
		}
		it.idx[d] = 0
	}
	it.done = true
	return false
}

// offsetOf is the per-element flat offset the reference iterators use.
func (a *Array) offsetOf(idx []int) int {
	p := a.offset
	for i, x := range idx {
		p += x * a.strides[i]
	}
	return p
}

// refZip is the seed zipApply: per-element offsetOf through the iterator.
func refZip(a, b *Array, f func(x, y float64) float64) *Array {
	sameShape(a, b)
	out := New(a.shape...)
	it := newRefIter(a.shape)
	i := 0
	for it.next() {
		out.data[i] = f(a.data[a.offsetOf(it.idx)], b.data[b.offsetOf(it.idx)])
		i++
	}
	return out
}

func refSum(a *Array) float64 {
	var s float64
	it := newRefIter(a.shape)
	for it.next() {
		s += a.data[a.offsetOf(it.idx)]
	}
	return s
}

func refReduceAxis(a *Array, axis int, init float64, f func(acc, x float64) float64) *Array {
	outShape := make([]int, 0, len(a.shape)-1)
	for i, s := range a.shape {
		if i != axis {
			outShape = append(outShape, s)
		}
	}
	out := New(outShape...)
	for i := range out.data {
		out.data[i] = init
	}
	it := newRefIter(a.shape)
	outIdx := make([]int, len(outShape))
	for it.next() {
		k := 0
		for d, x := range it.idx {
			if d != axis {
				outIdx[k] = x
				k++
			}
		}
		p := out.flatIndex(outIdx)
		out.data[p] = f(out.data[p], a.data[a.offsetOf(it.idx)])
	}
	return out
}

// randView builds a random array and, with probability, turns it into a
// non-contiguous view via slicing and/or transposition. The returned
// array exercises every routing decision of the kernel layer.
func randView(rng *rand.Rand) *Array {
	rank := 1 + rng.Intn(3)
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = 1 + rng.Intn(5)
	}
	// Build a larger parent so slices are strict subviews.
	parent := make([]int, rank)
	for i := range parent {
		parent[i] = shape[i] + rng.Intn(3)
	}
	a := New(parent...)
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	ranges := make([]Range, rank)
	for i := range ranges {
		start := rng.Intn(parent[i] - shape[i] + 1)
		ranges[i] = Range{start, start + shape[i]}
	}
	v := a.Slice(ranges...)
	if rng.Intn(2) == 0 {
		perm := rng.Perm(rank)
		v = v.Transpose(perm...)
	}
	return v
}

// TestFastPathsMatchIteratorReference drives sliced/transposed views
// through every fast-path kernel and demands bitwise agreement with the
// seed's iterator reference (satellite: non-contiguous coverage).
func TestFastPathsMatchIteratorReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randView(rng)
		b := a.Copy() // same shape, contiguous
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}

		add := func(x, y float64) float64 { return x + y }
		if s, want := a.Sum(), refSum(a); s != want {
			t.Logf("Sum: got %v want %v", s, want)
			return false
		}
		if !Equal(a.Copy(), refZip(a, a, func(x, _ float64) float64 { return x })) {
			t.Log("Copy mismatch")
			return false
		}
		axis := rng.Intn(a.NDim())
		got := a.reduceAxis(axis, 0, add)
		want := refReduceAxis(a, axis, 0, add)
		if !Equal(got, want) {
			t.Logf("reduceAxis(%d) mismatch: shape %v", axis, a.Shape())
			return false
		}
		// CopyFrom into a strided destination and back out.
		dst := randomDestLike(rng, a)
		dst.CopyFrom(a)
		if !Equal(dst.Copy(), a.Copy()) {
			t.Log("CopyFrom mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomDestLike builds a non-contiguous destination view with a's shape.
func randomDestLike(rng *rand.Rand, a *Array) *Array {
	shape := a.Shape()
	parent := make([]int, len(shape))
	for i := range parent {
		parent[i] = shape[i] + 1 + rng.Intn(2)
	}
	d := New(parent...)
	ranges := make([]Range, len(shape))
	for i := range ranges {
		start := rng.Intn(parent[i] - shape[i] + 1)
		ranges[i] = Range{start, start + shape[i]}
	}
	return d.Slice(ranges...)
}

// TestElementwiseDeterminismAcrossWorkers checks that the parallel
// elementwise kernel produces bit-identical results for every worker
// count.
func TestElementwiseDeterminismAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := New(64, 130) // > zipGrain elements
	for i := range a.data {
		a.data[i] = rng.NormFloat64()
	}
	prev := SetWorkers(1)
	want := a.Scale(3.5)
	SetWorkers(prev)
	for _, w := range []int{2, 8} {
		prev := SetWorkers(w)
		if !Equal(a.Scale(3.5), want) {
			t.Fatalf("Scale with %d workers differs", w)
		}
		SetWorkers(prev)
	}
}

// TestParallelForCoversAllBands checks the work-stealing loop visits
// every band exactly once for degenerate and general inputs.
func TestParallelForCoversAllBands(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		prev := SetWorkers(w)
		for _, n := range []int{0, 1, 5, 4096, 10000} {
			visited := make([]int32, n)
			ParallelFor(n, 7, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					visited[i]++
				}
			})
			for i, c := range visited {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: element %d visited %d times", w, n, i, c)
				}
			}
		}
		SetWorkers(prev)
	}
}

func BenchmarkKernelSumStrided(b *testing.B) {
	x := New(512, 512).Transpose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Sum()
	}
}
