package h5

import (
	"testing"

	"deisago/internal/metrics"
	"deisago/internal/ndarray"
	"deisago/internal/pdi"
	"deisago/internal/pfs"
)

const pluginCfg = `
data:
  temp:
    size: [ '$cfg.loc[0]', '$cfg.loc[1]' ]
plugins:
  PdiPluginHDF5:
    file: out.h5
    time_step: '$step'
    size_scale: 4
    datasets:
      G_temp:
        size:
          - '$cfg.maxTimeStep'
          - '$cfg.loc[0]'
          - '$cfg.loc[1] * $cfg.proc[1]'
        subsize:
          - 1
          - '$cfg.loc[0]'
          - '$cfg.loc[1]'
        start:
          - '$step'
          - 0
          - '$cfg.loc[1] * $rank'
    map_in:
      temp: G_temp
`

func pluginSystem(t *testing.T, fsys *pfs.FS, rank int) (*pdi.System, *PdiPlugin) {
	t.Helper()
	sys, err := pdi.New(pluginCfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Expose("step", 0)
	sys.Expose("rank", rank)
	sys.Expose("cfg", map[string]any{
		"loc":         []int{2, 2},
		"proc":        []int{1, 2},
		"maxTimeStep": 3,
	})
	p := NewPdiPlugin(fsys)
	if err := sys.AddPlugin(p); err != nil {
		t.Fatal(err)
	}
	return sys, p
}

func TestPdiPluginWritesChunks(t *testing.T) {
	fsys := testFS()
	sys0, p0 := pluginSystem(t, fsys, 0)
	now, err := sys0.Event("init", 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.File() == nil {
		t.Fatal("file not created")
	}
	// Second rank attaches to the same file.
	sys1, p1 := pluginSystem(t, fsys, 1)
	if err := p1.AttachFile(p0.File()); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 3; step++ {
		sys0.Expose("step", step)
		sys1.Expose("step", step)
		b0 := ndarray.New(2, 2)
		b0.Fill(float64(step))
		b1 := ndarray.New(2, 2)
		b1.Fill(float64(10 + step))
		if now, err = sys0.Share("temp", b0, now); err != nil {
			t.Fatal(err)
		}
		if now, err = sys1.Share("temp", b1, now); err != nil {
			t.Fatal(err)
		}
	}

	// Read back and verify layout: (t, X=2, Y=4), rank r at Y offset 2r.
	f, _, err := Open(fsys, "out.h5", now)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Dataset("G_temp")
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := ds.ReadAll(now)
	if err != nil {
		t.Fatal(err)
	}
	if all.At(1, 0, 0) != 1 || all.At(2, 1, 1) != 2 {
		t.Fatalf("rank-0 data wrong: %v", all)
	}
	if all.At(0, 0, 2) != 10 || all.At(2, 1, 3) != 12 {
		t.Fatalf("rank-1 data wrong: %v", all)
	}
}

func TestPdiPluginCostScale(t *testing.T) {
	fsys := testFS()
	reg := metrics.NewRegistry()
	fsys.UseMetrics(reg)
	sys, _ := pluginSystem(t, fsys, 0)
	now, err := sys.Event("init", 0)
	if err != nil {
		t.Fatal(err)
	}
	b := ndarray.New(2, 2)
	end, err := sys.Share("temp", b, now)
	if err != nil {
		t.Fatal(err)
	}
	// size_scale=4: the write must be charged 4× the raw bytes.
	written := reg.Counter("pfs", "bytes", metrics.L("op", "write")).Load()
	if written < 4*32 {
		t.Fatalf("scaled write charged only %d bytes", written)
	}
	if end <= now {
		t.Fatal("write cost no time")
	}
}

func TestPdiPluginConfigErrors(t *testing.T) {
	fsys := testFS()
	for name, cfg := range map[string]string{
		"no file": `
plugins:
  PdiPluginHDF5:
    time_step: '$step'
    datasets: { a: { size: [1], subsize: [1], start: [0] } }
    map_in: { temp: a }
`,
		"no timestep": `
plugins:
  PdiPluginHDF5:
    file: f.h5
    datasets: { a: { size: [1], subsize: [1], start: [0] } }
    map_in: { temp: a }
`,
		"bad target": `
plugins:
  PdiPluginHDF5:
    file: f.h5
    time_step: '$step'
    datasets: { a: { size: [1], subsize: [1], start: [0] } }
    map_in: { temp: ghost }
`,
		"no section": `data: { temp: { size: [1] } }`,
	} {
		sys, err := pdi.New(cfg)
		if err != nil {
			t.Fatalf("%s: yaml: %v", name, err)
		}
		if err := sys.AddPlugin(NewPdiPlugin(fsys)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestPdiPluginShareBeforeInit(t *testing.T) {
	fsys := testFS()
	reg := metrics.NewRegistry()
	fsys.UseMetrics(reg)
	sys, _ := pluginSystem(t, fsys, 0)
	if _, err := sys.Share("temp", ndarray.New(2, 2), 0); err == nil {
		t.Fatal("share before init accepted")
	}
}

func TestPdiPluginMisalignedStart(t *testing.T) {
	fsys := testFS()
	reg := metrics.NewRegistry()
	fsys.UseMetrics(reg)
	sys, _ := pluginSystem(t, fsys, 0)
	if _, err := sys.Event("init", 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt the rank so start is not chunk-aligned: loc[1]*rank with
	// rank exposed as a value producing misalignment is not possible
	// here (loc[1]=2 divides), so instead re-expose cfg with odd loc.
	sys.Expose("rank", 1)
	sys.Expose("cfg", map[string]any{
		"loc":         []int{2, 3}, // start = 3, chunk = 2 → misaligned
		"proc":        []int{1, 2},
		"maxTimeStep": 3,
	})
	if _, err := sys.Share("temp", ndarray.New(2, 3), 0); err == nil {
		t.Fatal("misaligned start accepted")
	}
}
