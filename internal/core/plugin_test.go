package core

import (
	"math"
	"sync"
	"testing"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/netsim"
	"deisago/internal/pdi"
	"deisago/internal/taskgraph"
)

// pluginConfig mirrors Listing 1 for a (t=2) × (X=4) × (Y=2) field split
// over a 2×1 process grid.
const pluginConfig = `
metadata: { step: int, cfg: config_t, rank: int }
data:
  temp:
    type: array
    subtype: double
    size: [ '$cfg.loc[0]', '$cfg.loc[1]' ]
plugins:
  PdiPluginDeisa:
    scheduler_info: scheduler.json
    init_on: init
    time_step: '$step'
    deisa_arrays:
      G_temp:
        type: array
        subtype: double
        size:
          - '$cfg.maxTimeStep'
          - '$cfg.loc[0] * $cfg.proc[0]'
          - '$cfg.loc[1] * $cfg.proc[1]'
        subsize:
          - 1
          - '$cfg.loc[0]'
          - '$cfg.loc[1]'
        start:
          - '$step'
          - '$cfg.loc[0] * ($rank % $cfg.proc[0])'
          - '$cfg.loc[1] * ($rank / $cfg.proc[0])'
        timedim: 0
    map_in:
      temp: G_temp
`

func newPluginSystem(t *testing.T, cluster *dask.Cluster, rank int) (*pdi.System, *Bridge) {
	t.Helper()
	sys, err := pdi.New(pluginConfig)
	if err != nil {
		t.Fatal(err)
	}
	sys.Expose("rank", rank)
	sys.Expose("step", 0)
	sys.Expose("cfg", map[string]any{
		"loc":         []int{2, 2},
		"proc":        []int{2, 1},
		"maxTimeStep": 2,
	})
	bridge := NewBridge(BridgeConfig{
		Rank: rank, Cluster: cluster, Node: netsim.NodeID(2 + rank),
		HeartbeatInterval: math.Inf(1), Mode: ModeExternal,
	})
	if err := sys.AddPlugin(NewPdiPluginDeisa(bridge)); err != nil {
		t.Fatal(err)
	}
	return sys, bridge
}

func TestPluginEndToEnd(t *testing.T) {
	cluster := testCluster(t, 2)
	const ranks = 2

	var wg sync.WaitGroup
	errs := make(chan error, ranks+1)
	var sum float64

	wg.Add(1)
	go func() {
		defer wg.Done()
		d := Connect(cluster, 1)
		set, err := d.GetDeisaArrays()
		if err != nil {
			errs <- err
			return
		}
		da, err := set.Get("G_temp")
		if err != nil {
			errs <- err
			return
		}
		da.SelectAll()
		if _, err := set.ValidateContract(); err != nil {
			errs <- err
			return
		}
		g := taskgraph.New()
		g.AddFn("sum", da.Keys(), func(in []any) (any, error) {
			s := 0.0
			for _, v := range in {
				s += v.(*ndarray.Array).Sum()
			}
			return s, nil
		}, 1e-4)
		futs, err := d.Client().Submit(g, []taskgraph.Key{"sum"})
		if err != nil {
			errs <- err
			return
		}
		vals, err := d.Client().Gather(futs)
		if err != nil {
			errs <- err
			return
		}
		sum = vals[0].(float64)
	}()

	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sys, _ := newPluginSystem(t, cluster, r)
			now, err := sys.Event("init", 0)
			if err != nil {
				errs <- err
				return
			}
			for step := 0; step < 2; step++ {
				sys.Expose("step", step)
				local := ndarray.New(2, 2) // the rank's (loc[0], loc[1]) buffer
				local.Fill(float64(10*r + step))
				now, err = sys.Share("temp", local, now+0.05)
				if err != nil {
					errs <- err
					return
				}
			}
			if _, err := sys.Finalize(now); err != nil {
				errs <- err
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Sum: 4 elements per block, values 10r+step for r,step in {0,1}:
	// 4*(0+1+10+11) = 88.
	if sum != 88 {
		t.Fatalf("sum = %v, want 88", sum)
	}
}

func TestPluginConfigErrors(t *testing.T) {
	cluster := testCluster(t, 1)
	bridge := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2, HeartbeatInterval: math.Inf(1)})
	for name, cfg := range map[string]string{
		"no section": `data: { temp: { size: [2] } }`,
		"no timestep": `
plugins:
  PdiPluginDeisa:
    deisa_arrays: { a: { size: [1], subsize: [1], start: [0] } }
    map_in: { temp: a }
`,
		"no map_in": `
plugins:
  PdiPluginDeisa:
    time_step: '$step'
    deisa_arrays: { a: { size: [1], subsize: [1], start: [0] } }
`,
		"bad target": `
plugins:
  PdiPluginDeisa:
    time_step: '$step'
    deisa_arrays: { a: { size: [1], subsize: [1], start: [0] } }
    map_in: { temp: ghost }
`,
	} {
		sys, err := pdi.New(cfg)
		if err != nil {
			t.Fatalf("%s: yaml: %v", name, err)
		}
		if err := sys.AddPlugin(NewPdiPluginDeisa(bridge)); err == nil {
			t.Fatalf("%s: config accepted", name)
		}
	}
}

func TestPluginShareBeforeInitEvent(t *testing.T) {
	cluster := testCluster(t, 1)
	sys, _ := newPluginSystem(t, cluster, 0)
	if _, err := sys.Share("temp", ndarray.New(2, 2), 0); err == nil {
		t.Fatal("share before init event accepted")
	}
}

func TestPluginIgnoresUnmappedEventAndData(t *testing.T) {
	cluster := testCluster(t, 1)
	sys, err := pdi.New(pluginConfig + `
  other: {}
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = cluster
	_ = sys
	// Unrelated events pass through without error before init.
	bridge := NewBridge(BridgeConfig{Rank: 0, Cluster: cluster, Node: 2, HeartbeatInterval: math.Inf(1)})
	p := NewPdiPluginDeisa(bridge)
	sys2, err := pdi.New(pluginConfig)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.AddPlugin(p); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Event("checkpoint", 0); err != nil {
		t.Fatalf("unrelated event errored: %v", err)
	}
}
