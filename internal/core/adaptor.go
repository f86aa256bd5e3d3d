package core

import (
	"fmt"
	"math"
	"sort"

	"deisago/internal/array"
	"deisago/internal/dask"
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
		set.byName[va.Name] = &DeisaArray{VA: va, chunked: va.Chunked()}
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

// DeisaArray is one published virtual array with its pending selection.
type DeisaArray struct {
	VA        *VirtualArray
	chunked   *array.Chunked
	selection *array.Selection
}

// SelectAll selects the whole array (the `[...]` of Listing 2) and
// returns the chunked view for graph building.
func (da *DeisaArray) SelectAll() *array.Chunked {
	da.selection = da.chunked.SelectAll()
	return da.chunked
}

// Select selects element ranges (the `[]` operator); blocks intersecting
// the ranges will be shipped. It returns the chunked view.
func (da *DeisaArray) Select(ranges ...array.Range) *array.Chunked {
	da.selection = da.chunked.Select(ranges...)
	return da.chunked
}

// Selection returns the current selection (nil before Select*).
func (da *DeisaArray) Selection() *array.Selection { return da.selection }

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
		if da.selection == nil {
			continue
		}
		grid := da.VA.Grid()
		tdim := da.VA.TimeDim
		// Compress: a spatial block selected at every timestep becomes a
		// single wildcard entry.
		bySpatial := map[string][]int{}
		spatialPos := map[string][]int{}
		for _, pos := range da.selection.Chunks {
			spatial := append([]int(nil), pos...)
			spatial[tdim] = -1
			k := posKey(spatial)
			bySpatial[k] = append(bySpatial[k], pos[tdim])
			spatialPos[k] = spatial
		}
		spatialKeys := make([]string, 0, len(bySpatial))
		for k := range bySpatial {
			spatialKeys = append(spatialKeys, k)
		}
		sort.Strings(spatialKeys)
		var positions [][]int
		for _, k := range spatialKeys {
			steps := bySpatial[k]
			if len(steps) == grid[tdim] {
				positions = append(positions, spatialPos[k])
				continue
			}
			for _, t := range steps {
				pos := append([]int(nil), spatialPos[k]...)
				pos[tdim] = t
				positions = append(positions, pos)
			}
		}
		contract.Add(name, positions)
		// External tasks for every selected block (wildcards expanded).
		for _, pos := range da.selection.Chunks {
			allKeys = append(allKeys, da.VA.BlockKey(pos))
		}
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
