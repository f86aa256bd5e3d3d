package core

import (
	"fmt"
	"math"
	"sort"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/taskgraph"
)

// Deisa is the analytics-side entry point (the dask_interface.Deisa of
// Listing 2): it wraps the analytics client, receives virtual-array
// descriptors from rank 0, exposes deisa arrays for selection, and signs
// the contract.
type Deisa struct {
	client *dask.Client
	ns     string
}

// Connect creates the analytics client at the given node. The client
// never heartbeats (it is not a bridge).
func Connect(cluster *dask.Cluster, node netsim.NodeID) *Deisa {
	return ConnectNamespaced(cluster, node, "")
}

// ConnectNamespaced creates the analytics client of one job on a
// shared cluster: the handshake Variables it reads and writes are
// prefixed "<ns>/", pairing it with the bridges whose BridgeConfig
// carries the same Namespace. The empty namespace is plain Connect.
func ConnectNamespaced(cluster *dask.Cluster, node netsim.NodeID, ns string) *Deisa {
	name := "deisa-adaptor"
	if ns != "" {
		name = ns + "/deisa-adaptor"
	}
	return &Deisa{client: cluster.NewClient(name, node, math.Inf(1)), ns: ns}
}

// Client returns the underlying analytics client.
func (d *Deisa) Client() *dask.Client { return d.client }

// GetDeisaArrays blocks until rank 0 publishes the descriptors and
// returns the array set for selection.
func (d *Deisa) GetDeisaArrays() (*ArraySet, error) {
	v := d.client.Variable(NamespacedVariable(d.ns, ArraysVariable)).Get()
	msg, ok := v.(*ArraysMsg)
	if !ok {
		return nil, fmt.Errorf("core: arrays variable holds %T", v)
	}
	set := &ArraySet{deisa: d, byName: map[string]*DeisaArray{}}
	for _, va := range msg.Arrays {
		if err := va.Validate(); err != nil {
			return nil, err
		}
		set.byName[va.Name] = &DeisaArray{VA: va}
		set.names = append(set.names, va.Name)
	}
	sort.Strings(set.names)
	return set, nil
}

// ArraySet holds the deisa arrays published by the simulation plus the
// selections the analytics made on them.
type ArraySet struct {
	deisa     *Deisa
	byName    map[string]*DeisaArray
	names     []string
	validated bool
}

// Names lists the available arrays.
func (s *ArraySet) Names() []string { return append([]string(nil), s.names...) }

// Get returns a deisa array by name.
func (s *ArraySet) Get(name string) (*DeisaArray, error) {
	da, ok := s.byName[name]
	if !ok {
		return nil, fmt.Errorf("core: no deisa array %q (have %v)", name, s.names)
	}
	return da, nil
}

// DeisaArray is one published virtual array with its pending selection:
// the half-open box [lo[d], hi[d]) of block positions in each dimension.
type DeisaArray struct {
	VA     *VirtualArray
	lo, hi []int // nil before Select*, or after a rejected Select
	err    error // why the last Select was rejected
}

// SelectAll selects the whole array (the `[...]` of Listing 2).
func (da *DeisaArray) SelectAll() {
	da.lo, da.hi, da.err = make([]int, len(da.VA.Size)), da.VA.Grid(), nil
}

// Select selects element ranges, one per dimension (the `[]` operator);
// every block intersecting all of them will be shipped. An invalid
// selection is kept as an error that ValidateContract returns; a later
// valid Select replaces it.
func (da *DeisaArray) Select(ranges ...ndarray.Range) {
	va := da.VA
	da.lo, da.hi, da.err = nil, nil, nil
	if len(ranges) != len(va.Size) {
		da.err = fmt.Errorf("core: %s: %d ranges for rank-%d array", va.Name, len(ranges), len(va.Size))
		return
	}
	lo, hi := make([]int, len(ranges)), make([]int, len(ranges))
	for d, r := range ranges {
		if r.Start < 0 || r.Stop > va.Size[d] || r.Start >= r.Stop {
			da.err = fmt.Errorf("core: %s: range [%d,%d) invalid for dim %d of extent %d", va.Name, r.Start, r.Stop, d, va.Size[d])
			return
		}
		lo[d] = r.Start / va.Subsize[d]
		hi[d] = (r.Stop + va.Subsize[d] - 1) / va.Subsize[d]
	}
	da.lo, da.hi = lo, hi
}

// Keys returns the keys of the selected blocks in row-major order (nil
// without a valid selection).
func (da *DeisaArray) Keys() []taskgraph.Key {
	var keys []taskgraph.Key
	if da.lo != nil {
		eachPos(da.lo, da.hi, func(pos []int) { keys = append(keys, da.VA.BlockKey(pos)) })
	}
	return keys
}

// eachPos visits every position of the box [lo, hi) in row-major order.
// f must not retain pos, which is reused.
func eachPos(lo, hi []int, f func(pos []int)) {
	pos := append([]int(nil), lo...)
	for {
		f(pos)
		d := len(pos) - 1
		for ; d >= 0; d-- {
			if pos[d]++; pos[d] < hi[d] {
				break
			}
			pos[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// ValidateContract signs the contract (§2.4.3): it verifies every
// selection refers to data made available by the simulation, creates the
// external tasks for all selected blocks in one RPC, and publishes the
// contract through the deisa-contract Variable, unblocking the bridges.
// Arrays without a selection are excluded (their blocks are filtered
// out at the bridges).
func (s *ArraySet) ValidateContract() (*Contract, error) {
	if s.validated {
		return nil, fmt.Errorf("core: contract already validated")
	}
	contract := NewContract()
	var allKeys []taskgraph.Key
	for _, name := range s.names {
		da := s.byName[name]
		if da.err != nil {
			return nil, da.err
		}
		if da.lo == nil {
			continue
		}
		// A box over every timestep is one time-wildcard entry per
		// spatial block.
		lo, hi := da.lo, da.hi
		if tdim := da.VA.TimeDim; lo[tdim] == 0 && hi[tdim] == da.VA.gridCached()[tdim] {
			lo, hi = append([]int(nil), lo...), append([]int(nil), hi...)
			lo[tdim], hi[tdim] = -1, 0
		}
		eachPos(lo, hi, func(pos []int) { contract.Add(name, [][]int{pos}) })
		allKeys = append(allKeys, da.Keys()...)
	}
	if len(allKeys) == 0 {
		return nil, fmt.Errorf("core: contract selects no data")
	}
	if _, err := s.deisa.client.ExternalFutures(allKeys); err != nil {
		return nil, err
	}
	s.deisa.client.Variable(NamespacedVariable(s.deisa.ns, ContractVariable)).Set(contract)
	s.validated = true
	return contract, nil
}

// Deisa1Adaptor is the analytics-side driver of the DEISA1 baseline: it
// drains the per-rank metadata queues each timestep to learn which keys
// arrived, as the HiPC'21 system does.
type Deisa1Adaptor struct {
	client *dask.Client
	ranks  int
}

// NewDeisa1Adaptor wraps an analytics client for the DEISA1 protocol.
func NewDeisa1Adaptor(client *dask.Client, ranks int) *Deisa1Adaptor {
	return &Deisa1Adaptor{client: client, ranks: ranks}
}

// NextStepKeys blocks until every rank has announced its key for the
// current timestep and returns the keys (one queue Get per rank — the
// 2·T·R message pattern of §2.1 counts these plus the scatter metadata).
func (a *Deisa1Adaptor) NextStepKeys() ([]taskgraph.Key, error) {
	keys := make([]taskgraph.Key, 0, a.ranks)
	for r := 0; r < a.ranks; r++ {
		v := a.client.Queue(Deisa1QueueName(r)).Get()
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("core: deisa1 queue %d held %T", r, v)
		}
		keys = append(keys, taskgraph.Key(s))
	}
	return keys, nil
}

// GetDeisaArraysVariable fetches the descriptor bundle for the DEISA1
// driver (shapes are still needed to build graphs).
func (a *Deisa1Adaptor) GetDeisaArrays() (*ArraysMsg, error) {
	v := a.client.Variable(ArraysVariable).Get()
	msg, ok := v.(*ArraysMsg)
	if !ok {
		return nil, fmt.Errorf("core: arrays variable holds %T", v)
	}
	return msg, nil
}
