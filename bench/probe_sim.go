package main

// Layer sim = internal/sim + internal/mpi. Symbols touched:
//
//	mpi.NewWorld, (*World).Run, (*Comm).Rank, (*Comm).Now
//	sim.Config, sim.New, sim.HotSpotInitial, (*Heat2D).Step
//	harness.DefaultModel (CellCost)

import (
	"sync/atomic"

	"deisago/internal/harness"
	"deisago/internal/mpi"
	"deisago/internal/sim"
)

// probeSim: sim.step_us per rank-step (halo exchange included, ranks on
// their own goroutines as in a run), and sim.virt_step_s, the simulated
// time of one step.
func probeSim(p *prober) error {
	machine, place := newPlatform(p.w, p.seed)
	var failed atomic.Pointer[error]
	var virt []float64
	for _, j := range p.w.jobs {
		hc := heatConfig(p.w, j)
		// The harness prices a step at the modelled block's cell count.
		hc.CellCost = float64(j.block/8) * harness.DefaultModel().CellCost / float64(p.w.realX*p.w.realY)
		world := mpi.NewWorld(machine.Fabric(), place.RankNodes[j.firstRank:j.firstRank+j.ranks])
		ends := make([]float64, j.ranks)
		p.timed("sim.step", j.ranks*j.steps, func() {
			world.Run(0, func(c *mpi.Comm) {
				h, err := sim.New(hc, c, sim.HotSpotInitial(hc))
				if err != nil {
					failed.Store(&err)
					return
				}
				for t := 0; t < j.steps; t++ {
					h.Step()
				}
				ends[c.Rank()] = c.Now()
			})
		})
		if err := failed.Load(); err != nil {
			return *err
		}
		for _, e := range ends {
			virt = append(virt, e/float64(j.steps))
		}
	}
	p.values["sim.virt_step_s"] = median(virt)
	return nil
}
