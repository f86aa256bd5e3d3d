package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"deisago/internal/mpi"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
)

func testWorld(n int) *mpi.World {
	cfg := netsim.Config{
		NodesPerSwitch:  8,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	f := netsim.New(cfg, (n+1)/2)
	nodes := make([]netsim.NodeID, n)
	for i := range nodes {
		nodes[i] = netsim.NodeID(i / 2)
	}
	return mpi.NewWorld(f, nodes)
}

func baseConfig(px, py int) Config {
	return Config{
		GlobalX: 16, GlobalY: 12,
		ProcX: px, ProcY: py,
		Alpha:    0.2,
		CellCost: 1e-8,
	}
}

// gatherParallel runs the solver on a world and assembles the global
// field after the given number of steps.
func gatherParallel(t *testing.T, cfg Config, steps int) *ndarray.Array {
	t.Helper()
	w := testWorld(cfg.ProcX * cfg.ProcY)
	global := ndarray.New(cfg.GlobalX, cfg.GlobalY)
	var mu sync.Mutex
	init := HotSpotInitial(cfg)
	w.Run(0, func(c *mpi.Comm) {
		h, err := New(cfg, c, init)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < steps; s++ {
			h.Step()
		}
		local := h.Local()
		x0, y0 := h.Origin()
		mu.Lock()
		global.Slice(ndarray.Range{Start: x0, Stop: x0 + cfg.LocalX()},
			ndarray.Range{Start: y0, Stop: y0 + cfg.LocalY()}).CopyFrom(local)
		mu.Unlock()
	})
	return global
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig(2, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{GlobalX: 0, GlobalY: 4, ProcX: 1, ProcY: 1, Alpha: 0.1},
		{GlobalX: 4, GlobalY: 4, ProcX: 0, ProcY: 1, Alpha: 0.1},
		{GlobalX: 5, GlobalY: 4, ProcX: 2, ProcY: 1, Alpha: 0.1}, // no tiling
		{GlobalX: 4, GlobalY: 4, ProcX: 1, ProcY: 1, Alpha: 0.3}, // unstable
		{GlobalX: 4, GlobalY: 4, ProcX: 1, ProcY: 1, Alpha: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, grid := range [][2]int{{1, 1}, {2, 1}, {1, 3}, {2, 2}, {4, 3}} {
		cfg := baseConfig(grid[0], grid[1])
		const steps = 8
		want := RunSerial(cfg, HotSpotInitial(cfg), steps)
		got := gatherParallel(t, cfg, steps)
		if !ndarray.AllClose(got, want, 1e-12) {
			t.Fatalf("parallel %dx%d differs from serial", grid[0], grid[1])
		}
	}
}

func TestMaxPrinciple(t *testing.T) {
	cfg := baseConfig(2, 2)
	w := testWorld(4)
	init := HotSpotInitial(cfg)
	w.Run(0, func(c *mpi.Comm) {
		h, err := New(cfg, c, init)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < 20; s++ {
			h.Step()
			lo, hi := h.LocalMinMax()
			if lo < -1e-12 || hi > 100+1e-12 {
				t.Errorf("max principle violated at step %d: [%v, %v]", s, lo, hi)
				return
			}
		}
	})
}

func TestDiffusionSpreadsHeat(t *testing.T) {
	cfg := baseConfig(1, 1)
	init := HotSpotInitial(cfg)
	u0 := RunSerial(cfg, init, 0)
	u20 := RunSerial(cfg, init, 20)
	// Peak decays, a cold cell near the hotspot warms.
	if u20.MaxAxis(0).MaxAxis(0).At() >= u0.MaxAxis(0).MaxAxis(0).At() {
		t.Fatal("peak did not decay")
	}
	// Cell adjacent to the hot square.
	cx, cy := cfg.GlobalX/2, cfg.GlobalY/2
	ry := cfg.GlobalY/8 + 1
	if u20.At(cx, cy+ry) <= u0.At(cx, cy+ry) {
		t.Fatal("heat did not spread")
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	cfg := baseConfig(2, 1)
	w := testWorld(2)
	times := make([]float64, 2)
	init := HotSpotInitial(cfg)
	w.Run(0, func(c *mpi.Comm) {
		h, err := New(cfg, c, init)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < 3; s++ {
			h.Step()
		}
		times[c.Rank()] = c.Now()
	})
	cells := float64(cfg.LocalX() * cfg.LocalY())
	wantMin := 3 * cells * cfg.CellCost
	for r, tm := range times {
		if tm < wantMin {
			t.Fatalf("rank %d clock %v < compute-only bound %v", r, tm, wantMin)
		}
	}
}

func TestOriginAndCoords(t *testing.T) {
	cfg := baseConfig(2, 2)
	w := testWorld(4)
	w.Run(0, func(c *mpi.Comm) {
		h, err := New(cfg, c, HotSpotInitial(cfg))
		if err != nil {
			t.Error(err)
			return
		}
		px, py := h.Coords()
		x0, y0 := h.Origin()
		if x0 != px*8 || y0 != py*6 {
			t.Errorf("rank %d origin (%d,%d) for coords (%d,%d)", c.Rank(), x0, y0, px, py)
		}
		if h.Steps() != 0 {
			t.Error("fresh solver has steps")
		}
	})
}

func TestNewErrors(t *testing.T) {
	w := testWorld(2)
	w.Run(0, func(c *mpi.Comm) {
		if c.Rank() != 0 {
			// Rank 1 must also attempt CartCreate-free path; just exit.
			return
		}
		cfg := baseConfig(4, 1) // needs 4 ranks, world has 2
		if _, err := New(cfg, c, HotSpotInitial(cfg)); err == nil {
			t.Error("grid/world mismatch accepted")
		}
	})
}

// Property: total heat decreases monotonically (dissipation through the
// cold boundary) for random stable alphas and random hotspots.
func TestDissipationQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			GlobalX: 8 + 2*rng.Intn(4),
			GlobalY: 8 + 2*rng.Intn(4),
			ProcX:   1, ProcY: 1,
			Alpha:    0.05 + 0.2*rng.Float64(),
			CellCost: 1e-9,
		}
		peak := 50 + 50*rng.Float64()
		init := func(gx, gy int) float64 {
			if gx == cfg.GlobalX/2 && gy == cfg.GlobalY/2 {
				return peak
			}
			return 0
		}
		prev := math.Inf(1)
		for _, steps := range []int{0, 5, 10, 20} {
			u := RunSerial(cfg, init, steps)
			total := u.Sum()
			if total > prev+1e-9 {
				return false
			}
			prev = total
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Coords returns this rank's process-grid coordinates.
func (h *Heat2D) Coords() (px, py int) { return h.px, h.py }

// Steps returns how many timesteps have been taken.
func (h *Heat2D) Steps() int { return h.step }

// LocalMinMax returns the interior extrema (for max-principle checks).
func (h *Heat2D) LocalMinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 1; i <= h.lx; i++ {
		for j := 1; j <= h.ly; j++ {
			v := h.u.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}
