package main

// Layer storage = internal/pfs + internal/h5 (the post hoc systems only).
// Symbols touched:
//
//	pfs.New, harness.DefaultModel (PFS)
//	h5.Create, (*File).CreateDataset, (*Dataset).SetSizeScale
//	(*Dataset).WriteChunk, (*Dataset).ReadChunk

import (
	"deisago/internal/h5"
	"deisago/internal/harness"
	"deisago/internal/ndarray"
	"deisago/internal/pfs"
)

// probeStorage: storage.write_us, storage.read_us per chunk — every job's
// blocks written to one chunked dataset on the simulated file system, at
// the modelled size, and read back.
func probeStorage(p *prober) error {
	for _, j := range p.w.jobs {
		fs := pfs.New(harness.DefaultModel().PFS)
		file, now := h5.Create(fs, "sim.h5", 0)
		va := virtualArray(p.w, j)
		ds, now, err := file.CreateDataset(va.Name, va.Size, va.Subsize, now)
		if err != nil {
			return err
		}
		ds.SetSizeScale(max(1, j.block/int64(p.w.realX*p.w.realY*8)))
		block := ndarray.New(1, p.w.realX, p.w.realY)
		chunks := j.ranks * j.steps
		each := func(op func(idx []int) error) {
			for t := 0; t < j.steps && err == nil; t++ {
				for b := 0; b < j.ranks && err == nil; b++ {
					err = op([]int{t, 0, b})
				}
			}
		}
		p.timed("storage.write", chunks, func() {
			each(func(idx []int) (e error) { now, e = ds.WriteChunk(idx, block, now); return })
		})
		p.timed("storage.read", chunks, func() {
			each(func(idx []int) (e error) { _, now, e = ds.ReadChunk(idx, now); return })
		})
		if err != nil {
			return err
		}
	}
	return nil
}
