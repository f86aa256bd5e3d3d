// Kernel layer: the flat-slice fast paths, strided run decomposition and
// worker pool knob that back every dense operation in this package.
//
// Design rules (see DESIGN.md "kernel layer"):
//
//   - Contiguous arrays are processed as raw []float64 with no per-element
//     index arithmetic. Strided views are decomposed into innermost runs
//     (base, stride, count) by an allocation-free odometer, so even
//     transposed/sliced inputs avoid the generic iterator.
//   - Every parallel kernel partitions output into disjoint regions and
//     keeps a fixed per-element order, so results are bit-identical to
//     the sequential reference for any worker count. This protects the
//     repository's "bit-equal PCA components" invariant (DESIGN §6)
//     while still using real cores — measured time is virtual
//     (internal/vtime), so real-time parallelism cannot perturb figures.
package ndarray

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the goroutine fan-out of parallel kernels. It defaults
// to GOMAXPROCS at init and is read atomically so concurrent Dask-worker
// task bodies can share the pool safely.
var maxWorkers int64

func init() { maxWorkers = int64(runtime.GOMAXPROCS(0)) }

// SetWorkers sets the maximum number of goroutines parallel kernels may
// use and returns the previous value. n < 1 is clamped to 1 (sequential).
// Results never depend on the worker count: parallel kernels are
// bit-identical to their sequential reference.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(atomic.SwapInt64(&maxWorkers, int64(n)))
}

// Workers returns the current kernel worker cap.
func Workers() int { return int(atomic.LoadInt64(&maxWorkers)) }

// ParallelFor splits [0,n) into bands of size grain and executes f over
// bands on up to Workers() goroutines, stealing bands through an atomic
// cursor. f must write only state owned by its band; under that contract
// the result is independent of scheduling, so callers stay deterministic.
func ParallelFor(n, grain int, f func(lo, hi int)) {
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if w <= 1 || n <= grain {
		if n > 0 {
			f(0, n)
		}
		return
	}
	bands := (n + grain - 1) / grain
	if bands < w {
		w = bands
	}
	var cursor int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				b := int(atomic.AddInt64(&cursor, 1)) - 1
				if b >= bands {
					return
				}
				lo := b * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				f(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// forEachRun calls f(base, stride, count) for each innermost run of the
// array in row-major order. It allocates one small odometer buffer for
// rank ≥ 3 and nothing otherwise; flat offsets are maintained
// incrementally instead of recomputed per element.
func (a *Array) forEachRun(f func(base, stride, count int)) {
	r := len(a.shape)
	switch r {
	case 0:
		f(a.offset, 1, 1)
		return
	case 1:
		if a.shape[0] > 0 {
			f(a.offset, a.strides[0], a.shape[0])
		}
		return
	case 2:
		rows, cols := a.shape[0], a.shape[1]
		if rows == 0 || cols == 0 {
			return
		}
		base := a.offset
		for i := 0; i < rows; i++ {
			f(base, a.strides[1], cols)
			base += a.strides[0]
		}
		return
	}
	inner, istr := a.shape[r-1], a.strides[r-1]
	if inner == 0 {
		return
	}
	for _, s := range a.shape[:r-1] {
		if s == 0 {
			return
		}
	}
	idx := make([]int, r-1)
	base := a.offset
	for {
		f(base, istr, inner)
		d := r - 2
		for ; d >= 0; d-- {
			idx[d]++
			base += a.strides[d]
			if idx[d] < a.shape[d] {
				break
			}
			base -= a.shape[d] * a.strides[d]
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// forEachRun2 walks two same-shaped arrays in lockstep row-major order,
// yielding the flat base offsets of each innermost run.
func forEachRun2(a, b *Array, f func(abase, bbase int, astride, bstride, count int)) {
	r := len(a.shape)
	switch r {
	case 0:
		f(a.offset, b.offset, 1, 1, 1)
		return
	case 1:
		if a.shape[0] > 0 {
			f(a.offset, b.offset, a.strides[0], b.strides[0], a.shape[0])
		}
		return
	case 2:
		rows, cols := a.shape[0], a.shape[1]
		if rows == 0 || cols == 0 {
			return
		}
		abase, bbase := a.offset, b.offset
		for i := 0; i < rows; i++ {
			f(abase, bbase, a.strides[1], b.strides[1], cols)
			abase += a.strides[0]
			bbase += b.strides[0]
		}
		return
	}
	inner := a.shape[r-1]
	if inner == 0 {
		return
	}
	for _, s := range a.shape[:r-1] {
		if s == 0 {
			return
		}
	}
	idx := make([]int, r-1)
	abase, bbase := a.offset, b.offset
	for {
		f(abase, bbase, a.strides[r-1], b.strides[r-1], inner)
		d := r - 2
		for ; d >= 0; d-- {
			idx[d]++
			abase += a.strides[d]
			bbase += b.strides[d]
			if idx[d] < a.shape[d] {
				break
			}
			abase -= a.shape[d] * a.strides[d]
			bbase -= b.shape[d] * b.strides[d]
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// zipGrain is the minimum elements per band for parallel elementwise
// kernels; below ~32 KiB of output the goroutine fan-out costs more than
// the loop.
const zipGrain = 4096
