package ml

import "deisago/internal/ndarray"

// SetKernelWorkers bounds the goroutine fan-out of the dense compute
// kernels under every estimator in this package (PCA/IPCA SVD sweeps,
// MatMul projections) and returns the previous
// bound. It is a process-wide knob shared with internal/ndarray and
// internal/array: Dask-worker task bodies run in one Go process, so a
// single cap models the machine's real cores.
//
// Parallelism never changes results — every kernel is bit-identical to
// its sequential reference — and never perturbs figures, because all
// measured time in this repository is virtual (internal/vtime
// reservations), not wall-clock.
func SetKernelWorkers(n int) int { return ndarray.SetWorkers(n) }

// KernelWorkers returns the current kernel worker bound.
func KernelWorkers() int { return ndarray.Workers() }
