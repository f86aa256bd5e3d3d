package mpi

import (
	"testing"

	"deisago/internal/netsim"
	"deisago/internal/vtime"
)

func testWorld(n int) *World {
	cfg := netsim.Config{
		NodesPerSwitch:  4,
		LinkBandwidth:   1e9,
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 1e-5,
	}
	f := netsim.New(cfg, (n+1)/2)
	nodes := make([]netsim.NodeID, n)
	for i := range nodes {
		nodes[i] = netsim.NodeID(i / 2) // 2 ranks per node
	}
	return NewWorld(f, nodes)
}

func TestSendRecv(t *testing.T) {
	w := testWorld(2)
	var got []float64
	var arriveAfter vtime.Time
	w.Run(0, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
		case 1:
			got = c.Recv(0, 7)
			arriveAfter = c.Now()
		}
	})
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("received %v", got)
	}
	if arriveAfter <= 0 {
		t.Fatal("receive advanced no virtual time")
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	w := testWorld(2)
	var got []float64
	w.Run(0, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{1}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not affect the message
		} else {
			got = c.Recv(0, 0)
		}
	})
	if got[0] != 1 {
		t.Fatalf("message aliased sender buffer: %v", got)
	}
}

func TestTagMatching(t *testing.T) {
	w := testWorld(2)
	var first, second []float64
	w.Run(0, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 6, []float64{6})
		} else {
			// Receive out of send order by tag.
			second = c.Recv(0, 6)
			first = c.Recv(0, 5)
		}
	})
	if first[0] != 5 || second[0] != 6 {
		t.Fatalf("tag matching wrong: %v %v", first, second)
	}
}

func TestPerPairFIFO(t *testing.T) {
	w := testWorld(2)
	var got []float64
	w.Run(0, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, 0, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 5; i++ {
				got = append(got, c.Recv(0, 0)[0])
			}
		}
	})
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestSendrecvExchange(t *testing.T) {
	w := testWorld(2)
	got := make([][]float64, 2)
	w.Run(0, func(c *Comm) {
		partner := 1 - c.Rank()
		got[c.Rank()] = c.Sendrecv(partner, 3, []float64{float64(c.Rank())})
	})
	if got[0][0] != 1 || got[1][0] != 0 {
		t.Fatalf("Sendrecv got %v", got)
	}
}

func TestCartTopology(t *testing.T) {
	w := testWorld(6)
	w.Run(0, func(c *Comm) {
		ct := c.CartCreate([]int{2, 3})
		coords := ct.Coords(c.Rank())
		if ct.RankOf(coords) != c.Rank() {
			t.Errorf("rank %d: RankOf(Coords) != rank", c.Rank())
		}
		if c.Rank() == 4 { // coords (1,1)
			if coords[0] != 1 || coords[1] != 1 {
				t.Errorf("Coords(4) = %v", coords)
			}
			src, dst := ct.Shift(1, 1) // along dim 1
			if src != 3 || dst != 5 {
				t.Errorf("Shift(1,1) = (%d,%d), want (3,5)", src, dst)
			}
			src, dst = ct.Shift(0, 1)
			if src != 1 || dst != -1 {
				t.Errorf("Shift(0,1) = (%d,%d), want (1,-1)", src, dst)
			}
		}
	})
}

func TestCartBoundaries(t *testing.T) {
	w := testWorld(4)
	w.Run(0, func(c *Comm) {
		ct := c.CartCreate([]int{4})
		if c.Rank() == 0 {
			src, dst := ct.Shift(0, 1)
			if src != -1 || dst != 1 {
				t.Errorf("rank 0 Shift = (%d,%d)", src, dst)
			}
		}
		if c.Rank() == 3 {
			src, dst := ct.Shift(0, 1)
			if src != 2 || dst != -1 {
				t.Errorf("rank 3 Shift = (%d,%d)", src, dst)
			}
		}
	})
}

func TestClockOriginAndCompute(t *testing.T) {
	w := testWorld(1)
	w.Run(100, func(c *Comm) {
		if c.Now() != 100 {
			t.Errorf("origin = %v", c.Now())
		}
		c.Compute(5)
		if c.Now() != 105 {
			t.Errorf("after Compute = %v", c.Now())
		}
	})
}

func TestCommCostGrowsWithMessageSize(t *testing.T) {
	// One rank per node so the transfer actually crosses the fabric.
	spread := func() *World {
		cfg := netsim.Config{
			NodesPerSwitch: 4, LinkBandwidth: 1e9, PruneFactor: 2,
			HopLatency: 1e-6, SoftwareLatency: 1e-5,
		}
		f := netsim.New(cfg, 2)
		return NewWorld(f, []netsim.NodeID{0, 1})
	}
	times := make([]vtime.Time, 2)
	for i, sz := range []int{1 << 10, 1 << 20} {
		w := spread()
		w.Run(0, func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, make([]float64, sz))
			} else {
				c.Recv(0, 0)
				times[i] = c.Now()
			}
		})
	}
	if times[1] <= times[0] {
		t.Fatalf("bigger message not slower: %v", times)
	}
}

func TestPanics(t *testing.T) {
	w := testWorld(2)
	w.Run(0, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		for name, fn := range map[string]func(){
			"neg tag send":   func() { c.Send(1, -1, nil) },
			"neg tag recv":   func() { c.Recv(1, -2) },
			"bad peer":       func() { c.Send(9, 0, nil) },
			"bad cart dims":  func() { c.CartCreate([]int{3}) },
			"zero cart dims": func() { c.CartCreate([]int{0, 2}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				fn()
			}()
		}
	})
}
