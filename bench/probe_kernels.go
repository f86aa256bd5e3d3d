package main

// Layer kernels = internal/ndarray + internal/linalg + internal/ml.
// Symbols touched:
//
//	ml.NewIncrementalPCA, (*IncrementalPCA).PartialFit, sim.RunSerial (through reference and batches)
//	ndarray.NewLabeled, (*Labeled).StackToMatrix, ndarray.Concat
//	(*ndarray.Array).Slice, Copy, Reshape, ndarray.Range

import (
	"math"

	"deisago/internal/harness"
	"deisago/internal/ndarray"
)

// probeKernels: kernels.fit_us per PartialFit (the mean over the job's
// chain of real batches), kernels.fold_us per block (StackToMatrix, and
// the Concat that assembles a step's batch), kernels.fit_flops (computed).
func probeKernels(p *prober) error {
	var flops, fits float64
	for _, j := range p.w.jobs {
		steps := batches(p.w, j)
		var err error
		p.timed("kernels.fit", j.steps, func() { _, err = reference(steps) })
		if err != nil {
			return err
		}
		// The last step's blocks, as the ranks publish them: (1, X, Yloc) each.
		field := steps[j.steps-1].Transpose(1, 0)
		blocks := make([]*ndarray.Array, j.ranks)
		for b := range blocks {
			blocks[b] = field.Slice(ndarray.Range{Start: 0, Stop: p.w.realX},
				ndarray.Range{Start: b * p.w.realY, Stop: (b + 1) * p.w.realY}).Copy().Reshape(1, p.w.realX, p.w.realY)
		}
		p.timed("kernels.fold", j.ranks, func() {
			mats := make([]*ndarray.Array, len(blocks))
			for b, block := range blocks {
				mats[b] = ndarray.NewLabeled(block, "t", "X", "Y").StackToMatrix([]string{"t", "Y"}, []string{"X"})
			}
			ndarray.Concat(0, mats...)
		})
		// The dense-SVD operation count of one PartialFit on the
		// (k+n+1)×f stack: 2·m·f·min(m,f) + 11·min(m,f)³.
		rows := float64(harness.DefaultModel().NComponents + j.ranks*p.w.realY + 1)
		cols := float64(p.w.realX)
		inner := math.Min(rows, cols)
		flops += float64(j.steps) * (2*rows*cols*inner + 11*inner*inner*inner)
		fits += float64(j.steps)
	}
	p.values["kernels.fit_flops"] = flops / fits
	return nil
}
