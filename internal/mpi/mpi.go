// Package mpi implements the message-passing substrate the paper's
// simulations run on: an SPMD world of ranks with typed point-to-point
// messages and Cartesian topologies for stencil codes (the simulations
// need only halo exchange, so there are no collectives). Ranks are
// goroutines in one process; messages move real data through channels
// and carry virtual timestamps computed by the network fabric, so
// communication cost and congestion appear in virtual time exactly as
// they would on the modelled cluster.
package mpi

import (
	"fmt"
	"sync"

	"deisago/internal/netsim"
	"deisago/internal/vtime"
)

type message struct {
	from int
	tag  int
	data []float64
	at   vtime.Time
}

type inbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) put(m message) {
	b.mu.Lock()
	b.queue = append(b.queue, m)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// take blocks until a message with the given source and tag is available
// and removes the first such message (per-pair FIFO order).
func (b *inbox) take(from, tag int) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		for i, m := range b.queue {
			if m.from == from && m.tag == tag {
				b.queue = append(b.queue[:i], b.queue[i+1:]...)
				return m
			}
		}
		b.cond.Wait()
	}
}

// World is a communicator universe: a set of ranks placed on fabric nodes.
type World struct {
	size    int
	fabric  *netsim.Fabric
	nodes   []netsim.NodeID
	inboxes []*inbox

	// SendOverhead is the sender-side software cost per message in
	// virtual seconds (packing, matching).
	SendOverhead vtime.Dur

	// Payload buffer free-list. send copies every payload into an
	// internal buffer (MPI_Send semantics: the sender may reuse its
	// buffer immediately); receivers that are done with a delivered
	// payload hand it back via Comm.Recycle so steady-state traffic —
	// e.g. one halo exchange per timestep — stops allocating.
	bufMu sync.Mutex
	bufs  [][]float64
}

// maxPooledBufs bounds the free-list so a burst of large messages
// cannot pin memory for the rest of a run.
const maxPooledBufs = 256

// getBuf returns a length-n buffer, reusing a recycled payload when one
// is large enough.
func (w *World) getBuf(n int) []float64 {
	w.bufMu.Lock()
	for i := len(w.bufs) - 1; i >= 0; i-- {
		if b := w.bufs[i]; cap(b) >= n {
			w.bufs[i] = w.bufs[len(w.bufs)-1]
			w.bufs = w.bufs[:len(w.bufs)-1]
			w.bufMu.Unlock()
			return b[:n]
		}
	}
	w.bufMu.Unlock()
	return make([]float64, n)
}

func (w *World) putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	w.bufMu.Lock()
	if len(w.bufs) < maxPooledBufs {
		w.bufs = append(w.bufs, b[:0])
	}
	w.bufMu.Unlock()
}

// NewWorld creates a world of len(rankNodes) ranks; rank r runs on fabric
// node rankNodes[r].
func NewWorld(fabric *netsim.Fabric, rankNodes []netsim.NodeID) *World {
	if len(rankNodes) == 0 {
		panic("mpi: world needs at least one rank")
	}
	w := &World{
		size:         len(rankNodes),
		fabric:       fabric,
		nodes:        append([]netsim.NodeID(nil), rankNodes...),
		SendOverhead: 2e-6,
	}
	for range rankNodes {
		w.inboxes = append(w.inboxes, newInbox())
	}
	return w
}

// Run executes f once per rank, each on its own goroutine, and waits for
// all of them to return. Each invocation receives that rank's Comm, whose
// clock starts at the given origin.
func (w *World) Run(origin vtime.Time, f func(c *Comm)) {
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			f(&Comm{world: w, rank: r, clock: vtime.NewClock(origin)})
		}(r)
	}
	wg.Wait()
}

// Comm is one rank's communicator handle. A Comm must only be used from
// the goroutine running that rank.
type Comm struct {
	world *World
	rank  int
	clock *vtime.Clock
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Clock returns this rank's virtual clock.
func (c *Comm) Clock() *vtime.Clock { return c.clock }

// Now returns the rank's current virtual time.
func (c *Comm) Now() vtime.Time { return c.clock.Now() }

// Compute advances this rank's clock by d seconds of local work.
func (c *Comm) Compute(d vtime.Dur) { c.clock.Advance(d) }

func (c *Comm) checkPeer(r int) {
	if r < 0 || r >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.world.size))
	}
}

// Send transmits data to another rank with a non-negative tag. It is
// buffered (never blocks on the receiver).
func (c *Comm) Send(to, tag int, data []float64) {
	if tag < 0 {
		panic("mpi: tags must be non-negative")
	}
	c.checkPeer(to)
	depart := c.clock.Advance(c.world.SendOverhead)
	arrive := c.world.fabric.Transfer(c.world.nodes[c.rank], c.world.nodes[to],
		int64(len(data))*8, depart)
	// Copy so sender may reuse its buffer, as with MPI_Send semantics.
	// The copy target comes from the world's free-list; the receiver may
	// Recycle it once consumed.
	cp := c.world.getBuf(len(data))
	copy(cp, data)
	c.world.inboxes[to].put(message{from: c.rank, tag: tag, data: cp, at: arrive})
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. The rank's clock is synced to the arrival time.
func (c *Comm) Recv(from, tag int) []float64 {
	if tag < 0 {
		panic("mpi: tags must be non-negative")
	}
	c.checkPeer(from)
	m := c.world.inboxes[c.rank].take(from, tag)
	c.clock.Sync(m.at)
	return m.data
}

// Sendrecv exchanges buffers with a partner rank (both sides must call
// it), a common stencil halo-exchange primitive.
func (c *Comm) Sendrecv(partner, tag int, out []float64) []float64 {
	c.Send(partner, tag, out)
	return c.Recv(partner, tag)
}

// Recycle returns a payload previously delivered by Recv/Sendrecv to the
// world's buffer pool. It is optional: callers that retain delivered
// slices simply never recycle them. After Recycle the caller must not
// touch the slice again.
func (c *Comm) Recycle(buf []float64) {
	c.world.putBuf(buf)
}

// Cart is a non-periodic Cartesian process topology over a communicator.
type Cart struct {
	comm *Comm
	dims []int
}

// CartCreate builds a Cartesian topology; the product of dims must equal
// the world size.
func (c *Comm) CartCreate(dims []int) *Cart {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic("mpi: Cartesian dims must be positive")
		}
		n *= d
	}
	if n != c.world.size {
		panic(fmt.Sprintf("mpi: Cartesian dims %v product %d != world size %d", dims, n, c.world.size))
	}
	return &Cart{comm: c, dims: append([]int(nil), dims...)}
}

// Coords returns the Cartesian coordinates of a rank (row-major).
func (ct *Cart) Coords(rank int) []int {
	out := make([]int, len(ct.dims))
	for i := len(ct.dims) - 1; i >= 0; i-- {
		out[i] = rank % ct.dims[i]
		rank /= ct.dims[i]
	}
	return out
}

// RankOf returns the rank at the given coordinates, or -1 if any
// coordinate is outside the (non-periodic) topology.
func (ct *Cart) RankOf(coords []int) int {
	if len(coords) != len(ct.dims) {
		panic("mpi: coordinate rank mismatch")
	}
	r := 0
	for i, x := range coords {
		if x < 0 || x >= ct.dims[i] {
			return -1
		}
		r = r*ct.dims[i] + x
	}
	return r
}

// Shift returns the source and destination ranks for a displacement along
// one dimension, -1 at the boundary (like MPI_PROC_NULL).
func (ct *Cart) Shift(dim, disp int) (src, dst int) {
	me := ct.Coords(ct.comm.rank)
	up := append([]int(nil), me...)
	up[dim] += disp
	dn := append([]int(nil), me...)
	dn[dim] -= disp
	return ct.RankOf(dn), ct.RankOf(up)
}
