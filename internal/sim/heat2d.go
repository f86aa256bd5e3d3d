// Package sim implements the Heat2D miniapp used by the paper's
// evaluation: an explicit finite-difference solver for the 2-D heat
// equation, domain-decomposed over a Cartesian MPI process grid with
// halo exchange. Each rank owns a local block; per-timestep the solver
// exchanges halos, updates its interior, and (through PDI) shares its
// block with the coupling layer.
package sim

import (
	"fmt"

	"deisago/internal/mpi"
	"deisago/internal/ndarray"
	"deisago/internal/vtime"
)

// Config describes the global problem and its decomposition.
type Config struct {
	// GlobalX, GlobalY are the global grid extents.
	GlobalX, GlobalY int
	// ProcX, ProcY form the process grid; ProcX*ProcY must equal the
	// world size and divide the global extents.
	ProcX, ProcY int
	// Alpha is the diffusion number (stability requires Alpha <= 0.25
	// for the explicit scheme).
	Alpha float64
	// CellCost is the modelled compute time per cell update in virtual
	// seconds (calibrated so a 128 MiB/process block takes roughly the
	// paper's per-iteration simulation time).
	CellCost vtime.Dur
}

// Validate checks decomposition invariants.
func (c Config) Validate() error {
	if c.GlobalX <= 0 || c.GlobalY <= 0 {
		return fmt.Errorf("sim: global extents must be positive")
	}
	if c.ProcX <= 0 || c.ProcY <= 0 {
		return fmt.Errorf("sim: process grid must be positive")
	}
	if c.GlobalX%c.ProcX != 0 || c.GlobalY%c.ProcY != 0 {
		return fmt.Errorf("sim: process grid %dx%d does not divide global %dx%d",
			c.ProcX, c.ProcY, c.GlobalX, c.GlobalY)
	}
	if c.Alpha <= 0 || c.Alpha > 0.25 {
		return fmt.Errorf("sim: alpha %v outside stable range (0, 0.25]", c.Alpha)
	}
	return nil
}

// LocalX returns the per-rank block extent in x.
func (c Config) LocalX() int { return c.GlobalX / c.ProcX }

// LocalY returns the per-rank block extent in y.
func (c Config) LocalY() int { return c.GlobalY / c.ProcY }

// Heat2D is one rank's solver state.
type Heat2D struct {
	cfg  Config
	comm *mpi.Comm
	cart *mpi.Cart

	lx, ly int
	px, py int // this rank's process-grid coordinates
	// u and next hold the local block with a one-cell halo:
	// (lx+2) × (ly+2).
	u, next *ndarray.Array
	step    int
	// Persistent send-side halo scratch: send copies payloads before the
	// fabric transfer completes (MPI_Send semantics), so one row and one
	// column buffer per rank suffice for the whole run.
	rowBuf, colBuf []float64
}

// Halo-exchange message tags.
const (
	tagXLow = 100 + iota
	tagXHigh
	tagYLow
	tagYHigh
)

// New creates a solver on the given communicator. The initial condition
// is given in global coordinates; boundary cells are held fixed at their
// initial values (Dirichlet).
func New(cfg Config, comm *mpi.Comm, initial func(gx, gy int) float64) (*Heat2D, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProcX*cfg.ProcY != comm.Size() {
		return nil, fmt.Errorf("sim: process grid %dx%d != world size %d", cfg.ProcX, cfg.ProcY, comm.Size())
	}
	h := &Heat2D{
		cfg:  cfg,
		comm: comm,
		cart: comm.CartCreate([]int{cfg.ProcX, cfg.ProcY}),
		lx:   cfg.LocalX(),
		ly:   cfg.LocalY(),
	}
	coords := h.cart.Coords(comm.Rank())
	h.px, h.py = coords[0], coords[1]
	h.u = ndarray.New(h.lx+2, h.ly+2)
	h.next = ndarray.New(h.lx+2, h.ly+2)
	h.rowBuf = make([]float64, h.ly)
	h.colBuf = make([]float64, h.lx)
	x0, y0 := h.Origin()
	for i := 0; i <= h.lx+1; i++ {
		for j := 0; j <= h.ly+1; j++ {
			gx, gy := x0+i-1, y0+j-1
			if gx < 0 {
				gx = 0
			}
			if gy < 0 {
				gy = 0
			}
			if gx >= cfg.GlobalX {
				gx = cfg.GlobalX - 1
			}
			if gy >= cfg.GlobalY {
				gy = cfg.GlobalY - 1
			}
			h.u.Set(initial(gx, gy), i, j)
		}
	}
	return h, nil
}

// Origin returns the global coordinates of this rank's first interior
// cell.
func (h *Heat2D) Origin() (x0, y0 int) {
	return h.px * h.lx, h.py * h.ly
}

// Step advances one timestep: halo exchange, then the five-point stencil
// update. The rank's virtual clock advances by the modelled compute cost
// plus the communication time of the exchange.
func (h *Heat2D) Step() {
	h.exchangeHalos()

	alpha := h.cfg.Alpha
	x0, y0 := h.Origin()
	// The stencil runs on the raw row-major buffers; the float operations
	// and their order are identical to the At/Set formulation, so results
	// stay bit-identical while skipping per-cell index checks.
	w := h.ly + 2
	ud, nd := h.u.Data(), h.next.Data()
	for i := 1; i <= h.lx; i++ {
		gx := x0 + i - 1
		up, row, down := ud[(i-1)*w:i*w], ud[i*w:(i+1)*w], ud[(i+1)*w:(i+2)*w]
		out := nd[i*w : (i+1)*w]
		for j := 1; j <= h.ly; j++ {
			gy := y0 + j - 1
			c := row[j]
			// Global Dirichlet boundary: cells on the domain edge stay
			// fixed, matching RunSerial.
			if gx == 0 || gy == 0 || gx == h.cfg.GlobalX-1 || gy == h.cfg.GlobalY-1 {
				out[j] = c
				continue
			}
			lap := up[j] + down[j] + row[j-1] + row[j+1] - 4*c
			out[j] = c + alpha*lap
		}
	}
	// Physical boundaries stay fixed (Dirichlet): copy the halo frame.
	h.copyBoundary()
	h.u, h.next = h.next, h.u
	h.step++
	h.comm.Compute(vtime.Dur(float64(h.lx*h.ly)) * h.cfg.CellCost)
}

func (h *Heat2D) copyBoundary() {
	for j := 0; j <= h.ly+1; j++ {
		h.next.Set(h.u.At(0, j), 0, j)
		h.next.Set(h.u.At(h.lx+1, j), h.lx+1, j)
	}
	for i := 0; i <= h.lx+1; i++ {
		h.next.Set(h.u.At(i, 0), i, 0)
		h.next.Set(h.u.At(i, h.ly+1), i, h.ly+1)
	}
}

// exchangeHalos swaps boundary rows/columns with the four Cartesian
// neighbors. Boundary-less sides keep their initial (Dirichlet) halo.
// Outgoing payloads are staged in the rank's persistent rowBuf/colBuf;
// delivered payloads are recycled into the MPI buffer pool once applied,
// so a steady-state exchange allocates nothing.
func (h *Heat2D) exchangeHalos() {
	// X direction: rows 1 and lx.
	lowX, highX := h.cart.Shift(0, 1) // src=px-1, dst=px+1
	if highX >= 0 {
		got := h.comm.Sendrecv(highX, tagXHigh, h.rowCopy(h.lx))
		h.setRow(h.lx+1, got)
		h.comm.Recycle(got)
	}
	if lowX >= 0 {
		got := h.comm.Sendrecv(lowX, tagXHigh, h.rowCopy(1))
		h.setRow(0, got)
		h.comm.Recycle(got)
	}
	// Y direction: columns 1 and ly.
	lowY, highY := h.cart.Shift(1, 1)
	if highY >= 0 {
		got := h.comm.Sendrecv(highY, tagYHigh, h.colCopy(h.ly))
		h.setCol(h.ly+1, got)
		h.comm.Recycle(got)
	}
	if lowY >= 0 {
		got := h.comm.Sendrecv(lowY, tagYHigh, h.colCopy(1))
		h.setCol(0, got)
		h.comm.Recycle(got)
	}
}

func (h *Heat2D) rowCopy(i int) []float64 {
	out := h.rowBuf
	for j := 1; j <= h.ly; j++ {
		out[j-1] = h.u.At(i, j)
	}
	return out
}

func (h *Heat2D) setRow(i int, vals []float64) {
	for j := 1; j <= h.ly; j++ {
		h.u.Set(vals[j-1], i, j)
	}
}

func (h *Heat2D) colCopy(j int) []float64 {
	out := h.colBuf
	for i := 1; i <= h.lx; i++ {
		out[i-1] = h.u.At(i, j)
	}
	return out
}

func (h *Heat2D) setCol(j int, vals []float64) {
	for i := 1; i <= h.lx; i++ {
		h.u.Set(vals[i-1], i, j)
	}
}

// Local returns a copy of this rank's interior block (lx × ly).
func (h *Heat2D) Local() *ndarray.Array {
	return h.u.Slice(ndarray.Range{Start: 1, Stop: h.lx + 1},
		ndarray.Range{Start: 1, Stop: h.ly + 1}).Copy()
}

// RunSerial solves the same problem on one rank without MPI, for
// verification: it returns the global field after the given number of
// steps.
func RunSerial(cfg Config, initial func(gx, gy int) float64, steps int) *ndarray.Array {
	nx, ny := cfg.GlobalX, cfg.GlobalY
	u := ndarray.New(nx, ny)
	next := ndarray.New(nx, ny)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			u.Set(initial(i, j), i, j)
		}
	}
	for s := 0; s < steps; s++ {
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				if i == 0 || j == 0 || i == nx-1 || j == ny-1 {
					next.Set(u.At(i, j), i, j)
					continue
				}
				c := u.At(i, j)
				lap := u.At(i-1, j) + u.At(i+1, j) + u.At(i, j-1) + u.At(i, j+1) - 4*c
				next.Set(c+cfg.Alpha*lap, i, j)
			}
		}
		u, next = next, u
	}
	return u
}

// HotSpotInitial returns the standard test initial condition: a hot
// square in the domain center over a cold background.
func HotSpotInitial(cfg Config) func(gx, gy int) float64 {
	cx, cy := cfg.GlobalX/2, cfg.GlobalY/2
	rx, ry := cfg.GlobalX/8+1, cfg.GlobalY/8+1
	return func(gx, gy int) float64 {
		if gx >= cx-rx && gx < cx+rx && gy >= cy-ry && gy < cy+ry {
			return 100
		}
		return 0
	}
}
