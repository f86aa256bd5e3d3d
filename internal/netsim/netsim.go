// Package netsim models the interconnect of the evaluation platform: a
// pruned fat-tree of EDR-InfiniBand-class links, as on the Irene/TGCC
// Skylake partition used by the paper.
//
// The model is intentionally small: two switch levels (leaf switches and a
// non-blocking spine), full-duplex node links, and pruned uplinks whose
// aggregate bandwidth is a fraction of the attached node bandwidth. Every
// shared element (node NIC egress/ingress, leaf uplink up/down) is a
// vtime.Resource, so congestion produces FCFS queueing delays in virtual
// time. A transfer occupies each link on its path in a pipelined (cut
// through) fashion: the path bandwidth is the minimum link bandwidth and
// hot links delay the whole flow.
//
// Concurrent transfers contend only where the model says they contend —
// on the per-link vtime.Resource mutexes along their paths, each followed
// by that link's own queue-wait histogram — never on fabric-wide
// bookkeeping: the only totals are the attached registry's counters,
// whose handles are resolved once (fabric totals in UseMetrics, per-link
// bundles CAS-cached on first use), and the one fault hook is set before
// traffic starts (DESIGN.md §14).
//
// The paper's Experiment II (Figure 5) attributes run-to-run variability
// to which leaf switch each allocated node lands on; Fabric exposes hop
// counts and per-link jitter so the harness can reproduce that effect.
package netsim

import (
	"fmt"
	"math"
	"sync/atomic"

	"deisago/internal/metrics"
	"deisago/internal/vtime"
)

// NodeID identifies a compute node in the fabric.
type NodeID int

// Config describes the fabric hardware.
type Config struct {
	// NodesPerSwitch is the number of nodes attached to one leaf switch.
	NodesPerSwitch int
	// LinkBandwidth is the node-to-leaf link bandwidth in bytes/second
	// (per direction; links are full duplex).
	LinkBandwidth float64
	// PruneFactor divides the leaf uplink aggregate bandwidth: an uplink
	// carries NodesPerSwitch*LinkBandwidth/PruneFactor bytes/second.
	// PruneFactor 1 is a non-blocking tree; the paper's platform uses a
	// pruned tree, so values > 1 are typical.
	PruneFactor float64
	// HopLatency is the per-hop latency in seconds.
	HopLatency float64
	// SoftwareLatency is a fixed per-message software overhead in seconds
	// (driver, protocol) charged once per transfer.
	SoftwareLatency float64
	// JitterFrac, if non-zero, scales a deterministic pseudo-random
	// multiplicative jitter of ±JitterFrac applied to each transfer's
	// service time. The jitter is a pure hash of (Seed, from, to, size,
	// depart) — not a shared stream — so it is lock-free on the transfer
	// path and independent of the real-time order in which concurrent
	// goroutines issue transfers.
	JitterFrac float64
	// Seed seeds the jitter hash.
	Seed int64
}

// DefaultConfig returns a configuration calibrated to an EDR InfiniBand
// (100 Gb/s) pruned fat-tree, as described in the paper's evaluation.
func DefaultConfig() Config {
	return Config{
		NodesPerSwitch:  16,
		LinkBandwidth:   12.5e9, // 100 Gb/s
		PruneFactor:     2,
		HopLatency:      1e-6,
		SoftwareLatency: 30e-6,
		JitterFrac:      0,
		Seed:            1,
	}
}

// FaultVerdict is a fault hook's decision about one transfer.
// SlowFactor (when > 0 and != 1) multiplies the transfer's service time
// on every link of the path; ExtraLatency is added once to the delivery
// time; Drop marks the message as lost in flight. The links are still
// occupied for a dropped transfer (the bytes entered the wire before the
// loss), but delivery-checking callers (TransferChecked) see it fail.
type FaultVerdict struct {
	SlowFactor   float64
	ExtraLatency vtime.Dur
	Drop         bool
}

// FaultHook inspects one transfer before it is booked and returns a
// verdict. A hook must be a deterministic function of its arguments so
// seeded runs reproduce; it is called with no fabric lock held and may
// not call back into the fabric.
type FaultHook func(from, to NodeID, size int64, depart vtime.Time) FaultVerdict

// nodeMetrics bundles one node's per-link instrument handles. The
// fields are nil — and therefore no-op — when no registry is attached.
type nodeMetrics struct {
	egBytes, inBytes *metrics.Counter
	egWait, inWait   *metrics.Histogram
}

// leafMetrics is the leaf-switch counterpart of nodeMetrics.
type leafMetrics struct {
	upBytes, downBytes *metrics.Counter
	upWait, downWait   *metrics.Histogram
}

// noNodeMetrics / noLeafMetrics are the shared all-nil handle bundles
// cached on links of an uninstrumented fabric, so the transfer path is
// one atomic load regardless of instrumentation.
var (
	noNodeMetrics nodeMetrics
	noLeafMetrics leafMetrics
)

type node struct {
	id      NodeID
	leaf    int
	leafSW  *leafSwitch // cached f.leaves[leaf], resolved at New
	egress  *vtime.Resource
	ingress *vtime.Resource

	// Per-link handles, resolved once on the node's first transfer and
	// cached behind an atomic pointer (see Fabric.nodeHandles): the hot
	// path is a single lock-free load, and a fabric only ever creates
	// instruments for links that actually carry traffic — machines are
	// platform-sized (hundreds of nodes) while runs touch a handful, so
	// resolving all of them up front would dwarf the run itself.
	nm atomic.Pointer[nodeMetrics]
}

type leafSwitch struct {
	up   *vtime.Resource // toward the spine
	down *vtime.Resource // from the spine

	lm atomic.Pointer[leafMetrics]
}

// Fabric is a simulated interconnect. All methods are safe for concurrent
// use; UseMetrics and SetFaultHook must be called before traffic starts.
type Fabric struct {
	cfg    Config
	upBW   float64 // uplink bandwidth, precomputed at New
	nodes  []*node
	leaves []*leafSwitch

	hook FaultHook // set by SetFaultHook; nil means no faults

	// Registry and fabric-total handles, resolved once by UseMetrics.
	reg              *metrics.Registry
	mTransfersLocal  *metrics.Counter
	mTransfersRemote *metrics.Counter
	mBytesLocal      *metrics.Counter
	mBytesRemote     *metrics.Counter
	mDropped         *metrics.Counter
}

// New builds a fabric with numNodes nodes. Nodes are assigned to leaf
// switches in blocks of cfg.NodesPerSwitch, in node-ID order; use a
// cluster allocation layer to permute which logical node gets which ID
// when modelling varying batch-scheduler allocations.
func New(cfg Config, numNodes int) *Fabric {
	if cfg.NodesPerSwitch <= 0 {
		panic("netsim: NodesPerSwitch must be positive")
	}
	if cfg.LinkBandwidth <= 0 {
		panic("netsim: LinkBandwidth must be positive")
	}
	if cfg.PruneFactor <= 0 {
		cfg.PruneFactor = 1
	}
	if numNodes <= 0 {
		panic("netsim: need at least one node")
	}
	f := &Fabric{
		cfg:  cfg,
		upBW: cfg.LinkBandwidth * float64(cfg.NodesPerSwitch) / cfg.PruneFactor,
	}
	nLeaves := (numNodes + cfg.NodesPerSwitch - 1) / cfg.NodesPerSwitch
	for l := 0; l < nLeaves; l++ {
		f.leaves = append(f.leaves, &leafSwitch{
			up:   vtime.NewResource(fmt.Sprintf("leaf%d-up", l)),
			down: vtime.NewResource(fmt.Sprintf("leaf%d-down", l)),
		})
	}
	for i := 0; i < numNodes; i++ {
		leaf := i / cfg.NodesPerSwitch
		f.nodes = append(f.nodes, &node{
			id:      NodeID(i),
			leaf:    leaf,
			leafSW:  f.leaves[leaf],
			egress:  vtime.NewResource(fmt.Sprintf("node%d-eg", i)),
			ingress: vtime.NewResource(fmt.Sprintf("node%d-in", i)),
		})
	}
	return f
}

// NumNodes returns the number of nodes.
func (f *Fabric) NumNodes() int { return len(f.nodes) }

func (f *Fabric) check(n NodeID) int {
	if int(n) < 0 || int(n) >= len(f.nodes) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", n, len(f.nodes)))
	}
	return int(n)
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// permutation used to derive per-transfer jitter without any shared state.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// jitter returns the multiplicative jitter for one transfer. It is a pure
// function of the fabric seed and the transfer's identity, so it takes no
// lock, never perturbs other transfers' jitter, and gives the same value
// no matter which goroutine orders the call first — the property the
// parallel harness relies on for bit-identical runs.
func (f *Fabric) jitter(from, to NodeID, size int64, depart vtime.Time) float64 {
	if f.cfg.JitterFrac == 0 {
		return 1
	}
	h := mix64(uint64(f.cfg.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(from))
	h = mix64(h ^ uint64(to))
	h = mix64(h ^ uint64(size))
	h = mix64(h ^ math.Float64bits(depart))
	u := float64(h>>11) / (1 << 53) // uniform in [0,1)
	j := 1 + f.cfg.JitterFrac*(2*u-1)
	if j < 0.05 {
		j = 0.05
	}
	return j
}

// UseMetrics attaches a registry: subsequent transfers count bytes and
// queue waits per link (component "link") plus fabric totals (component
// "fabric"), and RecordUtilization can sample link busy fractions. The
// per-scope fabric totals are resolved here, once; per-node and
// per-leaf handles materialize lock-free on each link's first transfer
// (see nodeHandles), so no transfer ever takes a fabric-wide lock and a
// platform-sized fabric never pays for links a run leaves idle. Call
// before traffic starts: the scope handles are published unsynchronized
// on the strength of that happens-before, and any per-link cache from a
// previously attached registry is invalidated.
func (f *Fabric) UseMetrics(r *metrics.Registry) {
	f.reg = r
	f.mTransfersLocal = r.Counter("fabric", "transfers", metrics.L("scope", "local"))
	f.mTransfersRemote = r.Counter("fabric", "transfers", metrics.L("scope", "remote"))
	f.mBytesLocal = r.Counter("fabric", "bytes", metrics.L("scope", "local"))
	f.mBytesRemote = r.Counter("fabric", "bytes", metrics.L("scope", "remote"))
	f.mDropped = r.Counter("fabric", "dropped")
	for _, n := range f.nodes {
		n.nm.Store(nil)
	}
	for _, l := range f.leaves {
		l.lm.Store(nil)
	}
}

// nodeHandles returns the node's instrument bundle, resolving and
// caching it on first use. Resolution goes through the registry's own
// creation path (idempotent, internally synchronized); racing callers
// resolve the same instruments and one bundle wins the CAS, so the
// published pointer is stable from then on and the transfer path pays
// one atomic load.
func (f *Fabric) nodeHandles(n *node) *nodeMetrics {
	if nm := n.nm.Load(); nm != nil {
		return nm
	}
	nm := &noNodeMetrics
	if r := f.reg; r != nil {
		eg := metrics.L("link", fmt.Sprintf("node%d-eg", n.id))
		in := metrics.L("link", fmt.Sprintf("node%d-in", n.id))
		nm = &nodeMetrics{
			egBytes: r.Counter("link", "bytes", eg),
			inBytes: r.Counter("link", "bytes", in),
			egWait:  r.Histogram("link", "queue_wait", eg),
			inWait:  r.Histogram("link", "queue_wait", in),
		}
	}
	if !n.nm.CompareAndSwap(nil, nm) {
		return n.nm.Load()
	}
	return nm
}

// leafHandles is nodeHandles for a leaf switch.
func (f *Fabric) leafHandles(i int, l *leafSwitch) *leafMetrics {
	if lm := l.lm.Load(); lm != nil {
		return lm
	}
	lm := &noLeafMetrics
	if r := f.reg; r != nil {
		up := metrics.L("link", fmt.Sprintf("leaf%d-up", i))
		down := metrics.L("link", fmt.Sprintf("leaf%d-down", i))
		lm = &leafMetrics{
			upBytes:   r.Counter("link", "bytes", up),
			downBytes: r.Counter("link", "bytes", down),
			upWait:    r.Histogram("link", "queue_wait", up),
			downWait:  r.Histogram("link", "queue_wait", down),
		}
	}
	if !l.lm.CompareAndSwap(nil, lm) {
		return l.lm.Load()
	}
	return lm
}

// RecordUtilization samples each active link's busy fraction of the
// virtual interval [0, at] into link/utilization gauges (idle links are
// skipped). Call once after the workload has drained.
func (f *Fabric) RecordUtilization(at vtime.Time) {
	reg := f.reg
	if reg == nil || at <= 0 {
		return
	}
	set := func(name string, r *vtime.Resource) {
		if b := r.Busy(); b > 0 {
			reg.Gauge("link", "utilization", metrics.L("link", name)).Set(b/at, at)
		}
	}
	for _, n := range f.nodes {
		set(fmt.Sprintf("node%d-eg", n.id), n.egress)
		set(fmt.Sprintf("node%d-in", n.id), n.ingress)
	}
	for i, l := range f.leaves {
		set(fmt.Sprintf("leaf%d-up", i), l.up)
		set(fmt.Sprintf("leaf%d-down", i), l.down)
	}
}

// SetFaultHook installs the fault hook consulted on every transfer
// (chaos fault injection: link degradation, extra latency, message
// drops), replacing any earlier one; nil removes it. Like UseMetrics,
// call it before traffic starts: transfers read the hook unsynchronized
// on the strength of that happens-before.
func (f *Fabric) SetFaultHook(h FaultHook) { f.hook = h }

// verdict asks the fault hook about one transfer. A SlowFactor <= 0
// counts as 1.
func (f *Fabric) verdict(from, to NodeID, size int64, depart vtime.Time) FaultVerdict {
	if f.hook == nil {
		return FaultVerdict{SlowFactor: 1}
	}
	v := f.hook(from, to, size, depart)
	if v.SlowFactor <= 0 {
		v.SlowFactor = 1
	}
	return v
}

// Transfer simulates moving size bytes from one node to another, departing
// at the given virtual time, and returns the arrival time. Local (same
// node) transfers cost only the software latency. The transfer occupies
// every shared link on its path; links are acquired in path order with
// pipelined starts, so the effective bandwidth is the minimum along the
// path and congestion at any link delays delivery.
//
// Transfer models reliable delivery: fault-hook Drop verdicts are ignored
// (retransmission is the caller's concern); degradation and extra latency
// still apply. Use TransferChecked to observe drops.
func (f *Fabric) Transfer(from, to NodeID, size int64, depart vtime.Time) vtime.Time {
	t, _ := f.TransferChecked(from, to, size, depart)
	return t
}

// TransferChecked is Transfer plus loss observation: it returns the
// delivery time and whether the message was actually delivered. A dropped
// transfer still occupies its path (the bytes entered the wire before
// being lost) and the returned time is when the loss is final.
//
// The only locks on this path are the per-link Resource bookings along
// the transfer's own route and each booked link's histogram: metric
// handles are pre-resolved or CAS-cached (and nil-safe when no registry
// is attached), and the fault hook and the jitter hash read no shared
// mutable state.
func (f *Fabric) TransferChecked(from, to NodeID, size int64, depart vtime.Time) (vtime.Time, bool) {
	if size < 0 {
		panic("netsim: negative transfer size")
	}
	a, b := f.nodes[f.check(from)], f.nodes[f.check(to)]
	v := f.verdict(from, to, size, depart)

	if v.Drop {
		f.mDropped.Inc()
	}

	t := depart + f.cfg.SoftwareLatency + v.ExtraLatency
	if a.id == b.id {
		f.mTransfersLocal.Inc()
		f.mBytesLocal.Add(size)
		return t, !v.Drop
	}
	f.mTransfersRemote.Inc()
	f.mBytesRemote.Add(size)
	am, bm := f.nodeHandles(a), f.nodeHandles(b)
	am.egBytes.Add(size)
	bm.inBytes.Add(size)

	crossSpine := a.leaf != b.leaf
	hops := 2
	if crossSpine {
		hops = 4
	}
	j := f.jitter(from, to, size, depart) * v.SlowFactor
	linkD := j * float64(size) / f.cfg.LinkBandwidth
	lat := f.cfg.HopLatency * float64(hops)

	// Pipelined (cut-through) occupancy: each link along the path is
	// requested starting from the previous link's service *start*, so an
	// uncongested path costs one serialization, while a congested link
	// stalls the flow.
	start, end := a.egress.Acquire(t, linkD)
	am.egWait.Observe(start - t)
	if crossSpine {
		la, lb := a.leafSW, b.leafSW
		lam, lbm := f.leafHandles(a.leaf, la), f.leafHandles(b.leaf, lb)
		lam.upBytes.Add(size)
		lbm.downBytes.Add(size)
		upD := j * float64(size) / f.upBW
		s2, e2 := la.up.Acquire(start, upD)
		lam.upWait.Observe(s2 - start)
		s3, e3 := lb.down.Acquire(s2, upD)
		lbm.downWait.Observe(s3 - s2)
		start, end = s3, vtime.MaxTime(end, e2, e3)
	}
	s4, e4 := b.ingress.Acquire(start, linkD)
	bm.inWait.Observe(s4 - start)
	end = vtime.MaxTime(end, e4)
	return end + lat, !v.Drop
}
