package h5

import (
	"fmt"
	"sort"

	"deisago/internal/ndarray"
	"deisago/internal/pdi"
	"deisago/internal/pfs"
	"deisago/internal/vtime"
)

// PluginName is the configuration key of the HDF5 plugin.
const PluginName = "PdiPluginHDF5"

// PdiPlugin writes shared data into chunked datasets on the parallel
// file system — the post hoc counterpart of the deisa plugin, keeping
// the paper's separation of concerns: the simulation code only exposes
// data through PDI; whether it is coupled in transit or written to
// storage is configuration.
//
// Configuration (mirrors the deisa plugin's):
//
//	plugins:
//	  PdiPluginHDF5:
//	    file: sim.h5
//	    time_step: '$step'
//	    size_scale: 1              # optional cost multiplier
//	    datasets:
//	      G_temp:
//	        size:    [ '$cfg.maxTimeStep', ... ]
//	        subsize: [ 1, ... ]
//	        start:   [ '$step', ... ]
//	    map_in:
//	      temp: G_temp
type PdiPlugin struct {
	fsys *pfs.FS
	sys  *pdi.System

	path         string
	timeStepExpr string
	sizeScale    int64
	mapIn        map[string]string
	dsCfg        map[string]map[string]any

	file     *File
	datasets map[string]*Dataset
	created  bool
}

// NewPdiPlugin wraps a file system as a PDI HDF5 writer plugin.
func NewPdiPlugin(fsys *pfs.FS) *PdiPlugin {
	return &PdiPlugin{fsys: fsys, sizeScale: 1}
}

// Name implements pdi.Plugin.
func (p *PdiPlugin) Name() string { return PluginName }

// Init implements pdi.Plugin.
func (p *PdiPlugin) Init(s *pdi.System) error {
	p.sys = s
	cfg, ok := s.PluginConfig(PluginName)
	if !ok {
		return fmt.Errorf("h5: no %s section in configuration", PluginName)
	}
	p.path, ok = cfg["file"].(string)
	if !ok || p.path == "" {
		return fmt.Errorf("h5: %s requires a file", PluginName)
	}
	p.timeStepExpr, ok = cfg["time_step"].(string)
	if !ok {
		return fmt.Errorf("h5: %s requires time_step", PluginName)
	}
	if sc, ok := cfg["size_scale"]; ok {
		v, err := pdi.EvalValue(sc, s.Metadata())
		if err != nil {
			return fmt.Errorf("h5: size_scale: %w", err)
		}
		iv, ok := v.(int64)
		if !ok || iv <= 0 {
			return fmt.Errorf("h5: size_scale must be a positive integer")
		}
		p.sizeScale = iv
	}
	p.mapIn = map[string]string{}
	if mi, ok := cfg["map_in"].(map[string]any); ok {
		for data, ds := range mi {
			name, ok := ds.(string)
			if !ok {
				return fmt.Errorf("h5: map_in.%s must name a dataset", data)
			}
			p.mapIn[data] = name
		}
	}
	if len(p.mapIn) == 0 {
		return fmt.Errorf("h5: %s requires a non-empty map_in", PluginName)
	}
	p.dsCfg = map[string]map[string]any{}
	dss, ok := cfg["datasets"].(map[string]any)
	if !ok {
		return fmt.Errorf("h5: %s requires datasets", PluginName)
	}
	for name, raw := range dss {
		m, ok := raw.(map[string]any)
		if !ok {
			return fmt.Errorf("h5: datasets.%s must be a map", name)
		}
		p.dsCfg[name] = m
	}
	for data, ds := range p.mapIn {
		if _, ok := p.dsCfg[ds]; !ok {
			return fmt.Errorf("h5: map_in.%s targets undeclared dataset %q", data, ds)
		}
	}
	return nil
}

// Event implements pdi.Plugin: the init event creates the file and its
// datasets from the evaluated configuration. Only one rank should own
// creation in a real deployment; here creation is idempotent per plugin
// instance and ranks share the File handle through AttachFile.
func (p *PdiPlugin) Event(name string, at vtime.Time) (vtime.Time, error) {
	if name != "init" || p.created {
		return at, nil
	}
	end := at
	if p.file == nil {
		p.file, end = Create(p.fsys, p.path, at)
	}
	p.datasets = map[string]*Dataset{}
	names := make([]string, 0, len(p.dsCfg))
	for n := range p.dsCfg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := p.dsCfg[n]
		size, err := p.sys.EvalIntList(m["size"])
		if err != nil {
			return at, fmt.Errorf("h5: datasets.%s.size: %w", n, err)
		}
		subsize, err := p.sys.EvalIntList(m["subsize"])
		if err != nil {
			return at, fmt.Errorf("h5: datasets.%s.subsize: %w", n, err)
		}
		ds, e, err := p.file.CreateDataset(n, size, subsize, end)
		if err != nil {
			return at, err
		}
		ds.SetSizeScale(p.sizeScale)
		p.datasets[n] = ds
		end = e
	}
	p.created = true
	return end, nil
}

// AttachFile shares an already-created file (and its datasets) with this
// plugin instance, so that one rank creates and the others attach — the
// usual parallel-HDF5 pattern.
func (p *PdiPlugin) AttachFile(f *File) error {
	p.file = f
	p.datasets = map[string]*Dataset{}
	for n := range p.dsCfg {
		ds, err := f.Dataset(n)
		if err != nil {
			return err
		}
		p.datasets[n] = ds
	}
	p.created = true
	return nil
}

// DataShared implements pdi.Plugin: a share of a mapped buffer writes
// the corresponding chunk.
func (p *PdiPlugin) DataShared(name string, data *ndarray.Array, at vtime.Time) (vtime.Time, error) {
	dsName, ok := p.mapIn[name]
	if !ok {
		return at, nil
	}
	if !p.created {
		return at, fmt.Errorf("h5: share of %q before init event", name)
	}
	ds := p.datasets[dsName]
	start, err := p.sys.EvalIntList(p.dsCfg[dsName]["start"])
	if err != nil {
		return at, fmt.Errorf("h5: datasets.%s.start: %w", dsName, err)
	}
	chunks := ds.ChunkShape()
	if len(start) != len(chunks) {
		return at, fmt.Errorf("h5: datasets.%s.start rank %d, dataset rank %d", dsName, len(start), len(chunks))
	}
	idx := make([]int, len(start))
	for d := range start {
		if start[d]%chunks[d] != 0 {
			return at, fmt.Errorf("h5: datasets.%s start %v not chunk-aligned", dsName, start)
		}
		idx[d] = start[d] / chunks[d]
	}
	block := data
	if block.NDim() == len(chunks)-1 {
		shape := append([]int{1}, block.Shape()...)
		block = block.Contiguous().Reshape(shape...)
	}
	return ds.WriteChunk(idx, block, at)
}

// Finalize implements pdi.Plugin.
func (p *PdiPlugin) Finalize(at vtime.Time) (vtime.Time, error) { return at, nil }
