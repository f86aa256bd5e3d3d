package core

// Contract is the signed data-filtering agreement of §2.4.3: for each
// virtual array, the set of block positions the analytics selected. It
// is computed once by the adaptor from the client's [] selections and
// broadcast to every bridge before the first timestep; each bridge then
// checks its blocks locally and ships only those the contract includes.
type Contract struct {
	// Selections maps array name to the selected block positions. A
	// position's time coordinate of -1 means "every timestep" (the
	// common case: analytics select spatial regions across all time).
	Selections map[string][][]int
}

// NewContract returns an empty contract.
func NewContract() *Contract {
	return &Contract{Selections: map[string][][]int{}}
}

// Add records selected block positions for an array.
func (c *Contract) Add(arrayName string, positions [][]int) {
	for _, p := range positions {
		c.Selections[arrayName] = append(c.Selections[arrayName], append([]int(nil), p...))
	}
}

// WantsBlock reports whether the contract includes the block at pos of
// the named array, honoring the -1 time wildcard at timeDim.
func (c *Contract) WantsBlock(arrayName string, pos []int, timeDim int) bool {
	sels, ok := c.Selections[arrayName]
	if !ok {
		return false
	}
	for _, sel := range sels {
		if len(sel) != len(pos) {
			continue
		}
		match := true
		for d := range sel {
			if d == timeDim && sel[d] == -1 {
				continue
			}
			if sel[d] != pos[d] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// SizeBytes models the wire size of the contract message.
func (c *Contract) SizeBytes() int64 {
	var n int64 = 64
	for name, sels := range c.Selections {
		n += int64(len(name))
		for _, sel := range sels {
			n += int64(len(sel)) * 8
		}
	}
	return n
}

// ArraysMsg is the descriptor bundle rank 0 publishes through the
// "deisa-arrays" Variable when signing contracts.
type ArraysMsg struct {
	Arrays []*VirtualArray
}

// SizeBytes models the wire size of the descriptor bundle.
func (m *ArraysMsg) SizeBytes() int64 {
	var n int64 = 64
	for _, a := range m.Arrays {
		n += int64(len(a.Name)) + int64(len(a.Size)+len(a.Subsize))*8 + 8
	}
	return n
}

// Variable names used for the contract handshake (§2.1: "two Dask
// variables, instead of Nbr_ranks distributed queues").
const (
	ArraysVariable   = "deisa-arrays"
	ContractVariable = "deisa-contract"
)

// NamespacedVariable scopes a handshake Variable (or queue) name to one
// job namespace: "<ns>/<base>". The empty namespace returns base
// unchanged, so single-job deployments keep the paper's names. Bridges
// and adaptors created with the same namespace pair up on the scoped
// names; concurrent pipelines never cross-talk.
func NamespacedVariable(ns, base string) string {
	if ns == "" {
		return base
	}
	return ns + "/" + base
}
