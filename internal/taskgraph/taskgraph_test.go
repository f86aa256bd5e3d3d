package taskgraph

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// Validate is the well-formedness oracle the graph tests (Fuse's
// included) check against: every dependency is present or external, and
// the graph is acyclic.
func (g *Graph) Validate(externals map[Key]bool) error {
	for k, t := range g.tasks {
		for _, d := range t.Deps {
			if !g.Has(d) && !externals[d] {
				return fmt.Errorf("taskgraph: task %q depends on missing key %q", k, d)
			}
		}
	}
	_, err := g.TopoSort(g.Keys(), externals)
	return err
}

func addConst(g *Graph, k Key, v float64) {
	g.AddFn(k, nil, func([]any) (any, error) { return v, nil }, 0)
}

func addSum(g *Graph, k Key, deps ...Key) {
	g.AddFn(k, deps, func(in []any) (any, error) {
		var s float64
		for _, x := range in {
			s += x.(float64)
		}
		return s, nil
	}, 0)
}

func diamond() *Graph {
	g := New()
	addConst(g, "a", 1)
	addSum(g, "b", "a")
	addSum(g, "c", "a")
	addSum(g, "d", "b", "c")
	return g
}

func TestAddGetHasLen(t *testing.T) {
	g := diamond()
	if g.Len() != 4 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Has("a") || g.Has("z") {
		t.Fatal("Has wrong")
	}
	if g.Get("b") == nil || g.Get("z") != nil {
		t.Fatal("Get wrong")
	}
	ks := g.Keys()
	if len(ks) != 4 || ks[0] != "a" || ks[3] != "d" {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestDuplicateKeyPanics(t *testing.T) {
	g := New()
	addConst(g, "a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	addConst(g, "a", 2)
}

func TestTopoSortOrder(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort([]Key{"d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pos := map[Key]int{}
	for i, k := range order {
		pos[k] = i
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for _, k := range order {
		for _, d := range g.Get(k).Deps {
			if pos[d] > pos[k] {
				t.Fatalf("dependency %q after dependent %q in %v", d, k, order)
			}
		}
	}
}

func TestTopoSortPartial(t *testing.T) {
	g := diamond()
	order, err := g.TopoSort([]Key{"b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatalf("partial order = %v, want [a b]", order)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	g.AddFn("x", []Key{"y"}, func([]any) (any, error) { return nil, nil }, 0)
	g.AddFn("y", []Key{"x"}, func([]any) (any, error) { return nil, nil }, 0)
	if _, err := g.TopoSort([]Key{"x"}, nil); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(nil); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestMissingDependency(t *testing.T) {
	g := New()
	g.AddFn("x", []Key{"ghost"}, func([]any) (any, error) { return nil, nil }, 0)
	if _, err := g.TopoSort([]Key{"x"}, nil); err == nil {
		t.Fatal("missing dep not detected")
	}
	// Declaring it external fixes validation.
	ext := map[Key]bool{"ghost": true}
	if _, err := g.TopoSort([]Key{"x"}, ext); err != nil {
		t.Fatalf("external dep rejected: %v", err)
	}
	if err := g.Validate(ext); err != nil {
		t.Fatalf("Validate with external: %v", err)
	}
}

func TestCullKeepsExactlyReachable(t *testing.T) {
	g := diamond()
	addConst(g, "orphan", 9)
	culled, err := g.Cull([]Key{"d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if culled.Len() != 4 || culled.Has("orphan") {
		t.Fatalf("cull kept %v", culled.Keys())
	}
	culled2, _ := g.Cull([]Key{"b"}, nil)
	if culled2.Len() != 2 {
		t.Fatalf("cull(b) = %v", culled2.Keys())
	}
}

func TestDependents(t *testing.T) {
	g := diamond()
	deps := g.Dependents()
	if len(deps["a"]) != 2 {
		t.Fatalf("Dependents[a] = %v", deps["a"])
	}
	if len(deps["b"]) != 1 || deps["b"][0] != "d" {
		t.Fatalf("Dependents[b] = %v", deps["b"])
	}
	if len(deps["d"]) != 0 {
		t.Fatal("sink has dependents")
	}
}

func TestIsData(t *testing.T) {
	g := New()
	g.Add(&Task{Key: "data"})
	addConst(g, "fn", 1)
	if !g.Get("data").IsData() || g.Get("fn").IsData() {
		t.Fatal("IsData wrong")
	}
}

// Property: for random DAGs (edges only from lower to higher indices),
// TopoSort emits each reachable key once, dependencies first, and Cull
// returns exactly the emitted set.
func TestTopoAndCullQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		g := New()
		for i := 0; i < n; i++ {
			var deps []Key
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.25 {
					deps = append(deps, Key(fmt.Sprintf("t%03d", j)))
				}
			}
			g.AddFn(Key(fmt.Sprintf("t%03d", i)), deps, func([]any) (any, error) { return nil, nil }, 0)
		}
		target := Key(fmt.Sprintf("t%03d", n-1))
		order, err := g.TopoSort([]Key{target}, nil)
		if err != nil {
			return false
		}
		pos := map[Key]int{}
		for i, k := range order {
			if _, dup := pos[k]; dup {
				return false
			}
			pos[k] = i
		}
		for _, k := range order {
			for _, d := range g.Get(k).Deps {
				if pd, ok := pos[d]; !ok || pd > pos[k] {
					return false
				}
			}
		}
		culled, err := g.Cull([]Key{target}, nil)
		if err != nil || culled.Len() != len(order) {
			return false
		}
		for _, k := range order {
			if !culled.Has(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddPanicsOnBadTask(t *testing.T) {
	g := New()
	for name, fn := range map[string]func(){
		"nil task":  func() { g.Add(nil) },
		"empty key": func() { g.Add(&Task{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKeysCachedAndInvalidated(t *testing.T) {
	g := diamond()
	first := g.Keys()
	want := []Key{"a", "b", "c", "d"}
	if len(first) != len(want) {
		t.Fatalf("Keys() = %v, want %v", first, want)
	}
	for i, k := range want {
		if first[i] != k {
			t.Fatalf("Keys() = %v, want %v", first, want)
		}
	}
	// A second call on an unchanged graph must reuse the cache.
	if n := testing.AllocsPerRun(10, func() { g.Keys() }); n != 0 {
		t.Fatalf("cached Keys() allocates %v per run, want 0", n)
	}
	// Add invalidates.
	addConst(g, "aa", 2)
	after := g.Keys()
	if len(after) != 5 || after[0] != "a" || after[1] != "aa" {
		t.Fatalf("Keys() after Add = %v, want aa in sorted position", after)
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	g := diamond()
	var visited []Key
	g.Walk(func(k Key, task *Task) bool {
		if task == nil || task.Key != k {
			t.Fatalf("Walk yielded task %+v for key %q", task, k)
		}
		visited = append(visited, k)
		return true
	})
	keys := g.Keys()
	if len(visited) != len(keys) {
		t.Fatalf("Walk visited %v, want %v", visited, keys)
	}
	for i := range keys {
		if visited[i] != keys[i] {
			t.Fatalf("Walk visited %v, want %v", visited, keys)
		}
	}
	count := 0
	g.Walk(func(Key, *Task) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("Walk after yield=false visited %d tasks, want 1", count)
	}
	// Iterating an unchanged graph through Walk allocates nothing.
	if n := testing.AllocsPerRun(10, func() {
		g.Walk(func(Key, *Task) bool { return true })
	}); n != 0 {
		t.Fatalf("Walk allocates %v per run, want 0", n)
	}
}
