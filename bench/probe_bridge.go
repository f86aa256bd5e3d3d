package main

// Layer bridge = internal/core (+ the pdi plugin that calls it in a run).
// Symbols touched:
//
//	core.NewBridge, core.BridgeConfig, core.ModeExternal
//	(*Bridge).DeclareArray, (*Bridge).Init, (*Bridge).Publish
//	core.Connect / core.ConnectNamespaced, (*Deisa).GetDeisaArrays
//	(*ArraySet).Get, (*DeisaArray).SelectAll, (*ArraySet).ValidateContract

import (
	"fmt"
	"math"

	"deisago/internal/core"
	"deisago/internal/ndarray"
)

// probeBridge: bridge.publish_us, bridge.publish_allocs. Each graph job
// signs its contract as examples/quickstart does — the consumer selects
// everything while rank 0 publishes the descriptors — and then every
// rank's bridge publishes one block per step.
func probeBridge(p *prober) error {
	dc, place := newCluster(p.w, p.seed)
	defer dc.Close()
	type rank struct {
		bridge *core.Bridge
		steps  int
		pos    []int
		now    float64
	}
	var ranks []*rank
	for _, j := range p.w.graphJobs() {
		signed := make(chan error, 1)
		go func() {
			set, err := core.ConnectNamespaced(dc, place.ClientNode, j.name).GetDeisaArrays()
			if err == nil {
				var da *core.DeisaArray
				if da, err = set.Get("G_temp"); err == nil {
					da.SelectAll()
					_, err = set.ValidateContract()
				}
			}
			signed <- err
		}()
		for r := 0; r < j.ranks; r++ {
			b := core.NewBridge(core.BridgeConfig{Rank: r, Cluster: dc, Node: place.RankNodes[j.firstRank+r],
				HeartbeatInterval: math.Inf(1), Mode: core.ModeExternal, ScatterBytes: j.block, Namespace: j.name})
			if err := b.DeclareArray(virtualArray(p.w, j)); err != nil {
				return err
			}
			now, err := b.Init(0)
			if err != nil {
				return fmt.Errorf("rank %d init: %w", r, err)
			}
			ranks = append(ranks, &rank{bridge: b, steps: j.steps, pos: []int{0, 0, r}, now: now})
		}
		if err := <-signed; err != nil {
			return fmt.Errorf("contract: %w", err)
		}
	}
	block := ndarray.New(1, p.w.realX, p.w.realY)
	blocks, maxSteps := 0, 0
	for _, r := range ranks {
		blocks += r.steps
		maxSteps = max(maxSteps, r.steps)
	}
	var err error
	p.timed("bridge.publish", blocks, func() {
		for t := 0; t < maxSteps; t++ {
			for _, r := range ranks {
				if t < r.steps && err == nil {
					r.pos[0] = t
					r.now, _, err = r.bridge.Publish("G_temp", r.pos, block, r.now+0.1)
				}
			}
		}
	})
	return err
}
