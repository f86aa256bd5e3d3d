// Package core implements the paper's contribution: the deisa bridging
// layer that couples an MPI simulation (producer) with the Dask-like
// distributed analytics runtime (consumer) through external tasks.
//
// The pieces map directly onto the paper's §2:
//
//   - VirtualArray — the deisa virtual array descriptor (§2.4.2): the
//     global spatiotemporal decomposition of a simulation field,
//     including the time dimension.
//   - Naming scheme (§2.4.1): each block key is
//     "deisa-<name>-<t>.<i>.<j>", position given in the global
//     decomposition with time first.
//   - Contract (§2.4.3): the block selection the analytics signed up
//     for; bridges filter locally and ship only needed blocks.
//   - Bridge (§2.1): one per MPI rank, built on a dask Client; rank 0
//     additionally publishes the array descriptors.
//   - Deisa adaptor (§2.3, Listing 2): the analytics-side object that
//     receives descriptors, exposes deisa arrays for selection, signs
//     the contract, creates external tasks, and submits graphs ahead of
//     time.
//   - PdiPluginDeisa (§2.3, Listing 1): the PDI plugin that drives a
//     Bridge from configuration.
//
// Two operating modes reproduce the paper's comparison systems: external
// tasks (DEISA2/DEISA3, this work) and the HiPC'21 scatter-per-timestep
// protocol (DEISA1) used as the baseline.
package core

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"deisago/internal/taskgraph"
)

// KeyPrefix starts every deisa block key (§2.4.1).
const KeyPrefix = "deisa"

// VirtualArray describes the spatiotemporal decomposition of one
// simulation field: global sizes in every dimension (including time),
// the size of the block each MPI process produces, and the tag of the
// time dimension. It is pure description — no data — and is what rank 0
// sends to the adaptor when signing contracts.
type VirtualArray struct {
	Name    string `json:"name"`
	Size    []int  `json:"size"`    // global extent per dimension
	Subsize []int  `json:"subsize"` // block extent per dimension
	TimeDim int    `json:"timedim"`

	// Namespace, when non-empty, scopes every key this array generates
	// to one job: block keys become "<ns>/deisa-<name>-...". Bridges
	// stamp it from their own Namespace at declaration, so concurrent
	// pipelines sharing a cluster never collide on block keys even when
	// their arrays share a name. Empty on single-job deployments, which
	// keeps the paper's §2.4.1 naming unchanged.
	Namespace string `json:"namespace,omitempty"`

	// grid caches Size[d]/Subsize[d]; it is derived state, computed once
	// on first use. Descriptors are treated as immutable after
	// declaration, so the cache never goes stale.
	gridOnce sync.Once
	grid     []int
}

// gridCached returns the per-dimension block counts without allocating.
// Callers must not mutate the result.
func (v *VirtualArray) gridCached() []int {
	v.gridOnce.Do(func() {
		g := make([]int, len(v.Size))
		for d := range g {
			g[d] = v.Size[d] / v.Subsize[d]
		}
		v.grid = g
	})
	return v.grid
}

// Validate checks the descriptor invariants: equal ranks, positive
// extents, blocks evenly tiling the domain, and a unit time-dimension
// block (one block per timestep per rank).
func (v *VirtualArray) Validate() error {
	if v.Name == "" {
		return fmt.Errorf("core: virtual array must have a name")
	}
	if len(v.Size) == 0 || len(v.Size) != len(v.Subsize) {
		return fmt.Errorf("core: %s: size %v and subsize %v must have equal non-zero rank", v.Name, v.Size, v.Subsize)
	}
	if v.TimeDim < 0 || v.TimeDim >= len(v.Size) {
		return fmt.Errorf("core: %s: timedim %d out of range", v.Name, v.TimeDim)
	}
	for d := range v.Size {
		if v.Size[d] <= 0 || v.Subsize[d] <= 0 {
			return fmt.Errorf("core: %s: non-positive extent in dim %d", v.Name, d)
		}
		if v.Size[d]%v.Subsize[d] != 0 {
			return fmt.Errorf("core: %s: subsize %d does not tile size %d in dim %d", v.Name, v.Subsize[d], v.Size[d], d)
		}
	}
	if v.Subsize[v.TimeDim] != 1 {
		return fmt.Errorf("core: %s: time-dimension block extent must be 1, got %d", v.Name, v.Subsize[v.TimeDim])
	}
	if strings.ContainsRune(v.Namespace, '/') {
		return fmt.Errorf("core: %s: namespace %q must be a single path segment", v.Name, v.Namespace)
	}
	return nil
}

// Grid returns the number of blocks per dimension. The result is a copy;
// hot paths use the internal cache directly.
func (v *VirtualArray) Grid() []int {
	return append([]int(nil), v.gridCached()...)
}

// BlockKey builds the unique key of the block at the given grid position
// (§2.4.1): deisa-<name>-<p0>.<p1>...., with the time dimension first in
// the position tuple by deisa convention (pos is given in dimension
// order; TimeDim identifies time).
func (v *VirtualArray) BlockKey(pos []int) taskgraph.Key {
	if len(pos) != len(v.Size) {
		panic(fmt.Sprintf("core: block position %v has rank %d, array %s has rank %d", pos, len(pos), v.Name, len(v.Size)))
	}
	grid := v.gridCached()
	// One allocation: the key bytes themselves (which the scheduler
	// interns and retains anyway).
	buf := make([]byte, 0, len(v.Namespace)+1+len(KeyPrefix)+len(v.Name)+2+4*len(pos))
	if v.Namespace != "" {
		buf = append(buf, v.Namespace...)
		buf = append(buf, '/')
	}
	buf = append(buf, KeyPrefix...)
	buf = append(buf, '-')
	buf = append(buf, v.Name...)
	buf = append(buf, '-')
	for d, p := range pos {
		if p < 0 || p >= grid[d] {
			panic(fmt.Sprintf("core: block position %v outside grid %v of %s", pos, grid, v.Name))
		}
		if d > 0 {
			buf = append(buf, '.')
		}
		buf = strconv.AppendInt(buf, int64(p), 10)
	}
	return taskgraph.Key(buf)
}

// ParseBlockKey inverts BlockKey, returning the array name and
// position. A job-namespace prefix ("<ns>/") is stripped; the returned
// name is the bare array name.
func ParseBlockKey(k taskgraph.Key) (name string, pos []int, err error) {
	s := string(k)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if !strings.HasPrefix(s, KeyPrefix+"-") {
		return "", nil, fmt.Errorf("core: key %q lacks %q prefix", k, KeyPrefix)
	}
	s = strings.TrimPrefix(s, KeyPrefix+"-")
	i := strings.LastIndex(s, "-")
	if i < 0 {
		return "", nil, fmt.Errorf("core: key %q has no position section", k)
	}
	name = s[:i]
	for _, p := range strings.Split(s[i+1:], ".") {
		n, perr := strconv.Atoi(p)
		if perr != nil {
			return "", nil, fmt.Errorf("core: bad position in key %q: %v", k, perr)
		}
		pos = append(pos, n)
	}
	return name, pos, nil
}

// PositionForStart inverts BlockStart: the grid position of the block
// whose element offset is start (the deisa plugin computes `start` from
// configuration expressions and maps it back to a grid position).
func (v *VirtualArray) PositionForStart(start []int) ([]int, error) {
	if len(start) != len(v.Size) {
		return nil, fmt.Errorf("core: start %v has rank %d, array %s has rank %d", start, len(start), v.Name, len(v.Size))
	}
	pos := make([]int, len(start))
	grid := v.gridCached()
	for d, s := range start {
		if s%v.Subsize[d] != 0 {
			return nil, fmt.Errorf("core: start %v not aligned to subsize %v in dim %d", start, v.Subsize, d)
		}
		pos[d] = s / v.Subsize[d]
		if pos[d] < 0 || pos[d] >= grid[d] {
			return nil, fmt.Errorf("core: start %v outside array %s", start, v.Name)
		}
	}
	return pos, nil
}

// WorkerForBlock deterministically preselects the worker that receives a
// block: the spatial block index modulo the worker count. Time-invariant
// placement keeps each spatial block's timeline on one worker, which is
// what lets partial-fit chains consume data without extra movement.
func (v *VirtualArray) WorkerForBlock(pos []int, numWorkers int) int {
	if numWorkers <= 0 {
		panic("core: numWorkers must be positive")
	}
	grid := v.gridCached()
	linear := 0
	for d := 0; d < len(pos); d++ {
		if d == v.TimeDim {
			continue
		}
		linear = linear*grid[d] + pos[d]
	}
	return linear % numWorkers
}
