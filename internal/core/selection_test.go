package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"deisago/internal/dask"
	"deisago/internal/ndarray"
	"deisago/internal/taskgraph"
)

// selectionSet is an ArraySet holding the single array va, as
// GetDeisaArrays builds it once rank 0 has published the descriptors.
func selectionSet(cluster *dask.Cluster, va *VirtualArray) (*ArraySet, *DeisaArray) {
	da := &DeisaArray{VA: va}
	return &ArraySet{
		deisa:  Connect(cluster, 1),
		byName: map[string]*DeisaArray{va.Name: da},
		names:  []string{va.Name},
	}, da
}

// An invalid selection is an error from ValidateContract, raised before
// any external task exists; a later valid Select replaces it.
func TestSelectRejectsBadRanges(t *testing.T) {
	for name, ranges := range map[string][]ndarray.Range{
		"rank":  {{Start: 0, Stop: 1}},
		"empty": {{Start: 2, Stop: 2}, {Start: 0, Stop: 4}},
		"oob":   {{Start: 0, Stop: 5}, {Start: 0, Stop: 4}},
	} {
		t.Run(name, func(t *testing.T) {
			cluster := testCluster(t, 1)
			va := &VirtualArray{Name: "a", Size: []int{4, 4}, Subsize: []int{1, 2}}
			set, da := selectionSet(cluster, va)
			da.Select(ranges...)
			if keys := da.Keys(); keys != nil {
				t.Fatalf("rejected selection has keys %v", keys)
			}
			if _, err := set.ValidateContract(); err == nil {
				t.Fatal("ValidateContract accepted an invalid selection")
			}
			if n := cluster.Metrics().Snapshot().Counter("dask/external_created"); n != 0 {
				t.Fatalf("%d external tasks created for an invalid selection", n)
			}
			da.Select(ndarray.Range{Start: 1, Stop: 3}, ndarray.Range{Start: 0, Stop: 2})
			c, err := set.ValidateContract()
			if err != nil {
				t.Fatalf("valid Select after a rejected one: %v", err)
			}
			if !c.WantsBlock("a", []int{2, 0}, 0) || c.WantsBlock("a", []int{2, 1}, 0) {
				t.Fatalf("contract %v", c.Selections)
			}
			if n := cluster.Metrics().Snapshot().Counter("dask/external_created"); n != 2 {
				t.Fatalf("external tasks = %d, want 2", n)
			}
		})
	}
}

// Element ranges select every block they touch: a full row of blocks, a
// single element, and a range straddling a block boundary.
func TestSelectRanges(t *testing.T) {
	da := &DeisaArray{VA: &VirtualArray{Name: "a", Size: []int{6, 6}, Subsize: []int{2, 2}}} // 3x3 grid
	for _, tc := range []struct {
		ranges []ndarray.Range
		want   []taskgraph.Key
	}{
		{[]ndarray.Range{{Start: 0, Stop: 2}, {Start: 0, Stop: 6}}, []taskgraph.Key{"deisa-a-0.0", "deisa-a-0.1", "deisa-a-0.2"}},
		{[]ndarray.Range{{Start: 3, Stop: 4}, {Start: 5, Stop: 6}}, []taskgraph.Key{"deisa-a-1.2"}},
		{[]ndarray.Range{{Start: 1, Stop: 3}, {Start: 0, Stop: 1}}, []taskgraph.Key{"deisa-a-0.0", "deisa-a-1.0"}},
	} {
		da.Select(tc.ranges...)
		if keys := da.Keys(); !slices.Equal(keys, tc.want) {
			t.Fatalf("Select(%v) keys = %v, want %v", tc.ranges, keys, tc.want)
		}
	}
}

// Property, over random 3-D and 5-D arrays and ranges: the selected keys
// are exactly the blocks whose extent intersects every range, in
// row-major order; the contract holds one time-wildcard entry per
// spatial block when the time range is full and none otherwise, wants
// exactly the selected blocks, and has the modelled wire size.
func TestSelectionBoxQuick(t *testing.T) {
	cluster := testCluster(t, 1)
	run := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := 3 + 2*rng.Intn(2)
		va := &VirtualArray{Name: "q", Size: make([]int, dims), Subsize: make([]int, dims), TimeDim: rng.Intn(dims)}
		grid := make([]int, dims)
		ranges := make([]ndarray.Range, dims)
		for d := range dims {
			grid[d] = 1 + rng.Intn(3)
			va.Subsize[d] = 1 + rng.Intn(3)
			if d == va.TimeDim {
				va.Subsize[d] = 1
			}
			va.Size[d] = grid[d] * va.Subsize[d]
			start := rng.Intn(va.Size[d])
			ranges[d] = ndarray.Range{Start: start, Stop: start + 1 + rng.Intn(va.Size[d]-start)}
		}
		if rng.Intn(2) == 0 {
			ranges[va.TimeDim] = ndarray.All(va.Size[va.TimeDim])
		}
		run++
		va.Namespace = fmt.Sprintf("q%d", run) // fresh keys on the shared cluster
		set, da := selectionSet(cluster, va)
		da.Select(ranges...)
		c, err := set.ValidateContract()
		if err != nil {
			t.Log(err)
			return false
		}

		// Brute-force oracle over every block of the grid.
		var want []taskgraph.Key
		selected := func(pos []int) bool {
			for d, r := range ranges {
				if lo := pos[d] * va.Subsize[d]; lo+va.Subsize[d] <= r.Start || lo >= r.Stop {
					return false
				}
			}
			return true
		}
		total := 1
		for _, g := range grid {
			total *= g
		}
		pos := make([]int, dims)
		for range total {
			if selected(pos) {
				want = append(want, va.BlockKey(pos))
			}
			if c.WantsBlock("q", pos, va.TimeDim) != selected(pos) {
				return false
			}
			for d := dims - 1; d >= 0; d-- {
				if pos[d]++; pos[d] < grid[d] {
					break
				}
				pos[d] = 0
			}
		}
		if !slices.Equal(da.Keys(), want) {
			return false
		}

		entries := c.Selections["q"]
		wildcards := 0
		for _, e := range entries {
			if e[va.TimeDim] == -1 {
				wildcards++
			}
		}
		if ranges[va.TimeDim] == ndarray.All(va.Size[va.TimeDim]) {
			if wildcards != len(entries) || wildcards*grid[va.TimeDim] != len(want) {
				return false
			}
		} else if wildcards != 0 || len(entries) != len(want) {
			return false
		}
		return c.SizeBytes() == int64(64+len("q")+len(entries)*dims*8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
