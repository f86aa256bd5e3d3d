// Package pfs simulates a Lustre-like parallel file system: a metadata
// server plus a set of object storage targets (OSTs) over which file data
// is striped. Every OST and the MDS are vtime.Resources, so concurrent
// writers share the file system's aggregate bandwidth with FCFS queueing —
// the effect that makes the paper's post hoc baseline stop scaling
// (Figures 2a/3a: per-process write bandwidth halves whenever the process
// count doubles, because total PFS bandwidth is fixed).
//
// File contents are held in memory; virtual time is the only "cost" of
// I/O. All methods are safe for concurrent use.
package pfs

import (
	"fmt"
	"sync"

	"deisago/internal/metrics"
	"deisago/internal/vtime"
)

// Config describes the file system hardware.
type Config struct {
	// OSTs is the number of object storage targets.
	OSTs int
	// OSTBandwidth is each OST's bandwidth in bytes/second. Aggregate
	// file-system bandwidth is OSTs*OSTBandwidth.
	OSTBandwidth float64
	// StripeSize is the striping unit in bytes.
	StripeSize int64
	// MetaLatency is the metadata-server service time per operation
	// (create, open, stat) in seconds.
	MetaLatency float64
}

// DefaultConfig returns a configuration calibrated so the simulated
// machine's post hoc writes saturate around 0.8 GiB/s aggregate, matching
// the magnitude the paper observed on Irene's Lustre for this workload.
func DefaultConfig() Config {
	return Config{
		OSTs:         8,
		OSTBandwidth: 100 << 20, // 100 MiB/s each -> 800 MiB/s aggregate
		StripeSize:   1 << 20,
		MetaLatency:  2e-3,
	}
}

type file struct {
	mu   sync.Mutex
	data []byte
}

func (f *file) writeAt(off int64, p []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := off + int64(len(p))
	if int64(len(f.data)) < end {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:end], p)
}

// readAt copies the byte range into buf when it has sufficient capacity,
// allocating a fresh slice otherwise.
func (f *file) readAt(off, n int64, buf []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off < 0 || off+n > int64(len(f.data)) {
		return nil, fmt.Errorf("pfs: read [%d,%d) beyond EOF %d", off, off+n, len(f.data))
	}
	var out []byte
	if int64(cap(buf)) >= n {
		out = buf[:n]
	} else {
		out = make([]byte, n)
	}
	copy(out, f.data[off:off+n])
	return out, nil
}

// FS is a simulated parallel file system.
type FS struct {
	cfg  Config
	mds  *vtime.Resource
	osts []*vtime.Resource

	mu    sync.Mutex
	files map[string]*file

	// Metric handles, resolved once by UseMetrics (nil and no-op when no
	// registry is attached). Published before I/O starts; the data path
	// reads them unsynchronized on that happens-before.
	reg         *metrics.Registry
	ostBytes    []*metrics.Counter // per-OST traffic, index-aligned with osts
	mdsOps      *metrics.Counter
	mReadBytes  *metrics.Counter
	mWriteBytes *metrics.Counter
}

// New creates an empty file system.
func New(cfg Config) *FS {
	if cfg.OSTs <= 0 || cfg.OSTBandwidth <= 0 || cfg.StripeSize <= 0 {
		panic("pfs: OSTs, OSTBandwidth and StripeSize must be positive")
	}
	fs := &FS{
		cfg:   cfg,
		mds:   vtime.NewResource("mds"),
		files: make(map[string]*file),
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, vtime.NewResource(fmt.Sprintf("ost%d", i)))
	}
	return fs
}

// UseMetrics attaches a registry: reads and writes count bytes per
// operation and per OST (component "pfs"), metadata operations are
// counted, and RecordUtilization can sample OST busy fractions. Call
// before I/O starts.
func (fs *FS) UseMetrics(r *metrics.Registry) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.reg = r
	fs.mdsOps = r.Counter("pfs", "mds_ops")
	fs.mReadBytes = r.Counter("pfs", "bytes", metrics.L("op", "read"))
	fs.mWriteBytes = r.Counter("pfs", "bytes", metrics.L("op", "write"))
	fs.ostBytes = make([]*metrics.Counter, len(fs.osts))
	for i := range fs.osts {
		fs.ostBytes[i] = r.Counter("pfs", "ost_bytes", metrics.LInt("ost", i))
	}
}

// RecordUtilization samples each OST's busy fraction of [0, at] and the
// file system's achieved share of its aggregate bandwidth. Call once
// after the workload has drained.
func (fs *FS) RecordUtilization(at vtime.Time) {
	fs.mu.Lock()
	reg := fs.reg
	moved := fs.mReadBytes.Load() + fs.mWriteBytes.Load()
	fs.mu.Unlock()
	if reg == nil || at <= 0 {
		return
	}
	for i, o := range fs.osts {
		if b := o.Busy(); b > 0 {
			reg.Gauge("pfs", "ost_utilization", metrics.LInt("ost", i)).Set(b/at, at)
		}
	}
	reg.Gauge("pfs", "aggregate_bw_share").
		Set(float64(moved)/at/fs.AggregateBandwidth(), at)
}

// AggregateBandwidth returns the file system's total bandwidth in
// bytes/second.
func (fs *FS) AggregateBandwidth() float64 {
	return float64(fs.cfg.OSTs) * fs.cfg.OSTBandwidth
}

// Create makes (or truncates) a file, charging one metadata operation.
// It returns the completion time.
func (fs *FS) Create(path string, at vtime.Time) vtime.Time {
	_, end := fs.mds.Acquire(at, fs.cfg.MetaLatency)
	fs.mu.Lock()
	fs.files[path] = &file{}
	fs.mdsOps.Inc()
	fs.mu.Unlock()
	return end
}

func (fs *FS) lookup(path string) (*file, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[path]
	if !ok {
		return nil, fmt.Errorf("pfs: %s: no such file", path)
	}
	return f, nil
}

// stripeCost charges each OST touched by the byte range [off, off+n) for
// its share of the transfer and returns the completion time.
func (fs *FS) stripeCost(off, n int64, at vtime.Time) vtime.Time {
	if n == 0 {
		return at
	}
	ostBytes := fs.ostBytes
	end := at
	ss := fs.cfg.StripeSize
	for pos := off; pos < off+n; {
		stripe := pos / ss
		stripeEnd := (stripe + 1) * ss
		chunkEnd := off + n
		if stripeEnd < chunkEnd {
			chunkEnd = stripeEnd
		}
		bytes := chunkEnd - pos
		idx := int(stripe) % len(fs.osts)
		if ostBytes != nil {
			ostBytes[idx].Add(bytes)
		}
		_, e := fs.osts[idx].Acquire(at, float64(bytes)/fs.cfg.OSTBandwidth)
		if e > end {
			end = e
		}
		pos = chunkEnd
	}
	return end
}

// WriteAt writes p at the given offset, growing the file as needed, and
// returns the virtual completion time.
func (fs *FS) WriteAt(path string, off int64, p []byte, at vtime.Time) (vtime.Time, error) {
	return fs.WriteAtCost(path, off, p, int64(len(p)), at)
}

// WriteAtCost is WriteAt with an explicit modelled transfer size: the
// stored bytes are p, but the OSTs are charged for costBytes. Harness
// code uses it to let small test data stand in for paper-scale blocks.
func (fs *FS) WriteAtCost(path string, off int64, p []byte, costBytes int64, at vtime.Time) (vtime.Time, error) {
	if off < 0 {
		return at, fmt.Errorf("pfs: negative offset %d", off)
	}
	if costBytes < 0 {
		return at, fmt.Errorf("pfs: negative cost size %d", costBytes)
	}
	f, err := fs.lookup(path)
	if err != nil {
		return at, err
	}
	f.writeAt(off, p)
	fs.mWriteBytes.Add(costBytes)
	return fs.stripeCost(off, costBytes, at), nil
}

// ReadAtCostBuf is ReadAtCost reading into buf when buf has capacity for
// n bytes (a fresh slice is allocated otherwise), so callers with a
// staging-buffer pool avoid a per-read allocation. The returned slice is
// buf's prefix in the reuse case.
func (fs *FS) ReadAtCostBuf(path string, off, n, costBytes int64, buf []byte, at vtime.Time) ([]byte, vtime.Time, error) {
	if costBytes < 0 {
		return nil, at, fmt.Errorf("pfs: negative cost size %d", costBytes)
	}
	f, err := fs.lookup(path)
	if err != nil {
		return nil, at, err
	}
	data, err := f.readAt(off, n, buf)
	if err != nil {
		return nil, at, err
	}
	fs.mReadBytes.Add(costBytes)
	return data, fs.stripeCost(off, costBytes, at), nil
}

// ReleaseBefore promises that no future I/O on this file system will be
// issued at a virtual time before t, letting the MDS and every OST
// compact booking history below that watermark (see vtime.Resource
// Release). The harness calls it at phase boundaries — e.g. after a post
// hoc write phase completes at simEnd, every analytics-phase read arrives
// at or after simEnd — so interval tables stay bounded by the live phase
// instead of growing with run length.
func (fs *FS) ReleaseBefore(t vtime.Time) {
	fs.mds.Release(t)
	for _, o := range fs.osts {
		o.Release(t)
	}
}
