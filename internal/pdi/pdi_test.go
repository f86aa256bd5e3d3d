package pdi

import (
	"fmt"
	"testing"
	"testing/quick"

	"deisago/internal/ndarray"
	"deisago/internal/vtime"
)

// listing1 is the paper's Listing 1 configuration, lightly adapted to the
// YAML subset (same structure and expressions).
const listing1 = `
metadata: { step: int, cfg: config_t, rank: int }
data:
  temp:             # the main temperature field
    type: array
    subtype: double
    size: [ '$cfg.loc[0]', '$cfg.loc[1]' ]
plugins:
  mpi:              # get MPI rank and size
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

func TestParseYAMLListing1(t *testing.T) {
	cfg, err := ParseYAML(listing1)
	if err != nil {
		t.Fatal(err)
	}
	meta := cfg["metadata"].(map[string]any)
	if meta["step"].(string) != "int" {
		t.Fatalf("metadata.step = %v", meta["step"])
	}
	data := cfg["data"].(map[string]any)
	temp := data["temp"].(map[string]any)
	if temp["subtype"].(string) != "double" {
		t.Fatal("data.temp.subtype")
	}
	size := temp["size"].([]any)
	if size[0].(string) != "$cfg.loc[0]" {
		t.Fatalf("size[0] = %v", size[0])
	}
	plugins := cfg["plugins"].(map[string]any)
	if _, ok := plugins["mpi"]; !ok {
		t.Fatal("mpi plugin missing")
	}
	deisa := plugins["PdiPluginDeisa"].(map[string]any)
	if deisa["scheduler_info"].(string) != "scheduler.json" {
		t.Fatal("scheduler_info")
	}
	arrays := deisa["deisa_arrays"].(map[string]any)
	gt := arrays["G_temp"].(map[string]any)
	if int(gt["timedim"].(int64)) != 0 {
		t.Fatalf("timedim = %v", gt["timedim"])
	}
	start := gt["start"].([]any)
	if len(start) != 3 || start[2].(string) != "$cfg.loc[1] * ($rank / $cfg.proc[0])" {
		t.Fatalf("start = %v", start)
	}
	mapIn := deisa["map_in"].(map[string]any)
	if mapIn["temp"].(string) != "G_temp" {
		t.Fatal("map_in")
	}
}

func TestParseYAMLScalars(t *testing.T) {
	cfg, err := ParseYAML(`
a: 42
b: 3.5
c: true
d: false
e: null
f: hello world
g: "quoted # not comment"
h: 'single'
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg["a"].(int64) != 42 || cfg["b"].(float64) != 3.5 {
		t.Fatal("numbers")
	}
	if cfg["c"].(bool) != true || cfg["d"].(bool) != false {
		t.Fatal("bools")
	}
	if cfg["e"] != nil {
		t.Fatal("null")
	}
	if cfg["f"].(string) != "hello world" {
		t.Fatal("bare string")
	}
	if cfg["g"].(string) != "quoted # not comment" {
		t.Fatal("quoted string with #")
	}
	if cfg["h"].(string) != "single" {
		t.Fatal("single-quoted")
	}
}

func TestParseYAMLFlowCollections(t *testing.T) {
	cfg, err := ParseYAML(`
list: [1, 2, [3, 4]]
map: { x: 1, y: two }
empty_list: []
empty_map: {}
`)
	if err != nil {
		t.Fatal(err)
	}
	l := cfg["list"].([]any)
	if l[0].(int64) != 1 || l[2].([]any)[1].(int64) != 4 {
		t.Fatalf("flow list = %v", l)
	}
	m := cfg["map"].(map[string]any)
	if m["x"].(int64) != 1 || m["y"].(string) != "two" {
		t.Fatalf("flow map = %v", m)
	}
	if len(cfg["empty_list"].([]any)) != 0 {
		t.Fatal("empty list")
	}
	if len(cfg["empty_map"].(map[string]any)) != 0 {
		t.Fatal("empty map")
	}
}

func TestParseYAMLBlockList(t *testing.T) {
	cfg, err := ParseYAML(`
sizes:
  - 1
  - '$x'
  - 3
`)
	if err != nil {
		t.Fatal(err)
	}
	l := cfg["sizes"].([]any)
	if len(l) != 3 || l[1].(string) != "$x" {
		t.Fatalf("block list = %v", l)
	}
}

func TestParseYAMLErrors(t *testing.T) {
	for name, src := range map[string]string{
		"tabs":      "a:\n\tb: 1",
		"duplicate": "a: 1\na: 2",
		"no colon":  "just some text",
		"bad flow":  "a: [1, 2",
	} {
		if _, err := ParseYAML(src); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
}

func exprCtx() map[string]any {
	return map[string]any{
		"step": int64(3),
		"rank": int64(5),
		"cfg": map[string]any{
			"loc":         []any{int64(8), int64(16)},
			"proc":        []any{int64(2), int64(3)},
			"maxTimeStep": int64(10),
		},
	}
}

func TestEvalExprListing1(t *testing.T) {
	ctx := exprCtx()
	cases := map[string]int64{
		"$step":                                3,
		"$cfg.loc[0]":                          8,
		"$cfg.loc[0] * $cfg.proc[0]":           16,
		"$cfg.loc[0] * ($rank % $cfg.proc[0])": 8,  // 8 * (5%2=1)
		"$cfg.loc[1] * ($rank / $cfg.proc[0])": 32, // 16 * (5/2=2)
		"$cfg.maxTimeStep":                     10,
		"1 + 2 * 3":                            7,
		"(1 + 2) * 3":                          9,
		"-4 + 10":                              6,
		"7 % 3":                                1,
	}
	for expr, want := range cases {
		got, err := EvalExpr(expr, ctx)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		if got.(int64) != want {
			t.Fatalf("%q = %v, want %d", expr, got, want)
		}
	}
}

func TestEvalExprFloats(t *testing.T) {
	got, err := EvalExpr("1.5 * 4", nil)
	if err != nil || got.(float64) != 6 {
		t.Fatalf("float eval = %v, %v", got, err)
	}
	got, err = EvalExpr("3 / 2", nil)
	if err != nil || got.(int64) != 1 {
		t.Fatalf("integer division = %v, want 1", got)
	}
}

func TestEvalExprErrors(t *testing.T) {
	ctx := exprCtx()
	for _, expr := range []string{
		"$nope", "$cfg.missing", "$cfg.loc[9]", "$cfg.loc[", "1 +", "(1", "$step.x",
		"1 / 0", "5 % 0", "$cfg.loc[1.5]", "@", "1 2",
	} {
		if _, err := EvalExpr(expr, ctx); err == nil {
			t.Fatalf("%q: expected error", expr)
		}
	}
}

func TestEvalIntAndValue(t *testing.T) {
	ctx := exprCtx()
	if n, err := EvalInt("$step + 1", ctx); err != nil || n != 4 {
		t.Fatalf("EvalInt = %d, %v", n, err)
	}
	if v, err := EvalValue(int64(7), ctx); err != nil || v.(int64) != 7 {
		t.Fatalf("EvalValue int = %v", v)
	}
	if v, err := EvalValue("$rank", ctx); err != nil || v.(int64) != 5 {
		t.Fatalf("EvalValue expr = %v", v)
	}
	if _, err := EvalValue([]any{}, ctx); err == nil {
		t.Fatal("EvalValue of list should error")
	}
}

// Property: random integer arithmetic expressions evaluate like Go.
func TestEvalArithmeticQuick(t *testing.T) {
	f := func(a, b, c int16) bool {
		bi := int64(b)
		if bi == 0 {
			bi = 1
		}
		expr := fmt.Sprintf("%d + %d * %d / %d", a, c, a, bi)
		got, err := EvalExpr(expr, nil)
		if err != nil {
			return false
		}
		want := int64(a) + int64(c)*int64(a)/bi
		return got.(int64) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// recorderPlugin records callbacks and advances time by a fixed cost.
type recorderPlugin struct {
	name   string
	shares []string
	events []string
	fin    bool
	cost   vtime.Dur
}

func (r *recorderPlugin) Name() string       { return r.name }
func (r *recorderPlugin) Init(*System) error { return nil }
func (r *recorderPlugin) DataShared(name string, _ *ndarray.Array, at vtime.Time) (vtime.Time, error) {
	r.shares = append(r.shares, name)
	return at + r.cost, nil
}
func (r *recorderPlugin) Event(name string, at vtime.Time) (vtime.Time, error) {
	r.events = append(r.events, name)
	return at + r.cost, nil
}
func (r *recorderPlugin) Finalize(at vtime.Time) (vtime.Time, error) {
	r.fin = true
	return at, nil
}

func TestSystemShareEventFinalize(t *testing.T) {
	s, err := New(listing1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorderPlugin{name: "rec", cost: 0.5}
	if err := s.AddPlugin(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPlugin(&recorderPlugin{name: "rec"}); err == nil {
		t.Fatal("duplicate plugin accepted")
	}
	end, err := s.Event("init", 1)
	if err != nil || end != 1.5 {
		t.Fatalf("Event end = %v, err %v", end, err)
	}
	data := ndarray.New(2, 2)
	end, err = s.Share("temp", data, end)
	if err != nil || end != 2.0 {
		t.Fatalf("Share end = %v, err %v", end, err)
	}
	if _, err := s.Share("nope", data, end); err == nil {
		t.Fatal("undeclared share accepted")
	}
	if _, err := s.Finalize(end); err != nil {
		t.Fatal(err)
	}
	if !rec.fin || len(rec.shares) != 1 || rec.shares[0] != "temp" || rec.events[0] != "init" {
		t.Fatalf("recorder state: %+v", rec)
	}
}

func TestSystemMetadataAndDataSize(t *testing.T) {
	s, err := New(listing1)
	if err != nil {
		t.Fatal(err)
	}
	s.Expose("step", 2)
	s.Expose("rank", 3)
	s.Expose("cfg", map[string]any{
		"loc":         []int{4, 8},
		"proc":        []int{2, 2},
		"maxTimeStep": 10,
	})
	if v, ok := s.Metadata()["rank"]; !ok || v.(int64) != 3 {
		t.Fatalf("metadata rank = %v", v)
	}
	// The declared size of temp evaluates against the exposed metadata.
	temp := s.config["data"].(map[string]any)["temp"].(map[string]any)
	size, err := s.EvalIntList(temp["size"])
	if err != nil {
		t.Fatal(err)
	}
	if size[0] != 4 || size[1] != 8 {
		t.Fatalf("temp size = %v", size)
	}
	if !s.HasData("temp") || s.HasData("ghost") {
		t.Fatal("HasData wrong")
	}
	if v, err := EvalExpr("$cfg.loc[0] * ($rank % $cfg.proc[0])", s.Metadata()); err != nil || v.(int64) != 4 {
		t.Fatalf("EvalExpr = %v, %v", v, err)
	}
}

func TestPluginConfig(t *testing.T) {
	s, err := New(listing1)
	if err != nil {
		t.Fatal(err)
	}
	pc, ok := s.PluginConfig("PdiPluginDeisa")
	if !ok {
		t.Fatal("PdiPluginDeisa config missing")
	}
	if pc["init_on"].(string) != "init" {
		t.Fatalf("init_on = %v", pc["init_on"])
	}
	// The bare `mpi:` plugin has an empty config.
	mc, ok := s.PluginConfig("mpi")
	if !ok || len(mc) != 0 {
		t.Fatalf("mpi config = %v, %v", mc, ok)
	}
	if _, ok := s.PluginConfig("ghost"); ok {
		t.Fatal("ghost plugin found")
	}
}

func TestEvalIntList(t *testing.T) {
	s := &System{meta: map[string]any{}}
	s.Expose("n", 5)
	got, err := s.EvalIntList([]any{int64(1), "$n * 2", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 10 || got[2] != 3 {
		t.Fatalf("EvalIntList = %v", got)
	}
	if _, err := s.EvalIntList("not a list"); err == nil {
		t.Fatal("non-list accepted")
	}
	if _, err := s.EvalIntList([]any{"1.5"}); err == nil {
		t.Fatal("non-integer accepted")
	}
}

func TestYAMLBlockListVariants(t *testing.T) {
	// Nested block items and "- key: value" forms in lists.
	cfg, err := ParseYAML(`
jobs:
  - name: first
  - second
  -
  - nested:
      x: 1
      y: [2, 3]
`)
	if err != nil {
		t.Fatal(err)
	}
	jobs := cfg["jobs"].([]any)
	if len(jobs) != 4 {
		t.Fatalf("jobs = %v", jobs)
	}
	if jobs[0].(map[string]any)["name"].(string) != "first" {
		t.Fatalf("jobs[0] = %v", jobs[0])
	}
	if jobs[1].(string) != "second" {
		t.Fatalf("jobs[1] = %v", jobs[1])
	}
	if jobs[2] != nil {
		t.Fatalf("jobs[2] = %v", jobs[2])
	}
	nested := jobs[3].(map[string]any)["nested"].(map[string]any)
	if nested["x"].(int64) != 1 || nested["y"].([]any)[1].(int64) != 3 {
		t.Fatalf("nested = %v", nested)
	}
}

func TestYAMLListOfBlocks(t *testing.T) {
	cfg, err := ParseYAML(`
steps:
  -
    a: 1
    b: 2
  -
    a: 3
`)
	if err != nil {
		t.Fatal(err)
	}
	steps := cfg["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("steps = %v", steps)
	}
	if steps[0].(map[string]any)["b"].(int64) != 2 || steps[1].(map[string]any)["a"].(int64) != 3 {
		t.Fatalf("steps = %v", steps)
	}
}

func TestIndexValueVariants(t *testing.T) {
	ctx := map[string]any{
		"ints":   []int{7, 8},
		"i64s":   []int64{9, 10},
		"floats": []float64{1.5, 2.5},
		"scalar": int64(3),
	}
	if v, err := EvalExpr("$ints[1]", ctx); err != nil || v.(int64) != 8 {
		t.Fatalf("ints: %v %v", v, err)
	}
	if v, err := EvalExpr("$i64s[0]", ctx); err != nil || v.(int64) != 9 {
		t.Fatalf("i64s: %v %v", v, err)
	}
	if v, err := EvalExpr("$floats[1] * 2", ctx); err != nil || v.(float64) != 5 {
		t.Fatalf("floats: %v %v", v, err)
	}
	for _, expr := range []string{"$ints[5]", "$i64s[9]", "$floats[9]", "$scalar[0]"} {
		if _, err := EvalExpr(expr, ctx); err == nil {
			t.Fatalf("%q accepted", expr)
		}
	}
}

func TestEvalIntErrors(t *testing.T) {
	if _, err := EvalInt("$nope", nil); err == nil {
		t.Fatal("unknown ref accepted")
	}
	ctx := map[string]any{"s": "text"}
	if _, err := EvalInt("$s", ctx); err == nil {
		t.Fatal("string result accepted")
	}
	if n, err := EvalInt("2.9", nil); err != nil || n != 2 {
		t.Fatalf("float truncation: %d %v", n, err)
	}
}

func TestApplyMixedTypes(t *testing.T) {
	// int op float promotes to float.
	cases := map[string]float64{
		"1 + 2.5":  3.5,
		"2.5 - 1":  1.5,
		"4 / 2.0":  2,
		"1.5 * 2":  3,
		"-2.5 + 1": -1.5,
	}
	for expr, want := range cases {
		v, err := EvalExpr(expr, nil)
		if err != nil {
			t.Fatalf("%q: %v", expr, err)
		}
		if v.(float64) != want {
			t.Fatalf("%q = %v, want %v", expr, v, want)
		}
	}
	if _, err := EvalExpr("2.5 % 2", nil); err == nil {
		t.Fatal("float modulo accepted")
	}
	if _, err := EvalExpr("1.5 / 0.0", nil); err == nil {
		t.Fatal("float division by zero accepted")
	}
}

func TestConfigAndMetadataAccessors(t *testing.T) {
	s := &System{meta: map[string]any{}}
	s.Expose("a", 5)
	md := s.Metadata()
	if md["a"].(int64) != 5 {
		t.Fatal("Metadata accessor")
	}
}
