package sim_test

import (
	"fmt"
	"sync"

	"deisago/internal/mpi"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/sim"
)

// ExampleRunSerial runs the Heat2D miniapp on a 2×2 process grid of the
// MPI substrate, assembles the global field and checks it against the
// serial reference solver.
func ExampleRunSerial() {
	const steps = 50
	cfg := sim.Config{GlobalX: 64, GlobalY: 48, ProcX: 2, ProcY: 2, Alpha: 0.2, CellCost: 1e-8}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ranks := cfg.ProcX * cfg.ProcY
	nodes := make([]netsim.NodeID, ranks)
	for i := range nodes {
		nodes[i] = netsim.NodeID(i / 2)
	}
	world := mpi.NewWorld(netsim.New(netsim.DefaultConfig(), (ranks+1)/2), nodes)

	global := ndarray.New(cfg.GlobalX, cfg.GlobalY)
	init := sim.HotSpotInitial(cfg)
	var mu sync.Mutex
	world.Run(0, func(c *mpi.Comm) {
		h, err := sim.New(cfg, c, init)
		if err != nil {
			panic(err)
		}
		for s := 0; s < steps; s++ {
			h.Step()
		}
		x0, y0 := h.Origin()
		mu.Lock()
		global.Slice(ndarray.Range{Start: x0, Stop: x0 + cfg.LocalX()},
			ndarray.Range{Start: y0, Stop: y0 + cfg.LocalY()}).CopyFrom(h.Local())
		mu.Unlock()
	})

	fmt.Printf("field total: %.6g\n", global.Sum())
	fmt.Printf("field range: [%.4f, %.4f]\n",
		global.MinAxis(0).MinAxis(0).At(), global.MaxAxis(0).MaxAxis(0).At())
	fmt.Println("parallel == serial:", ndarray.AllClose(global, sim.RunSerial(cfg, init, steps), 1e-10))
	// Output:
	// field total: 25199.2
	// field range: [0.0000, 84.0857]
	// parallel == serial: true
}
