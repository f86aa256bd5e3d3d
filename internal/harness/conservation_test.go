package harness

import (
	"strings"
	"testing"

	"deisago/internal/chaos"
	"deisago/internal/metrics"
)

// Conservation-law tests: independent counters maintained by different
// components (fabric links, workers, bridges, scheduler, PFS OSTs) must
// agree about the same physical quantity. check.sh runs this package
// under -race with DEISA_AUDIT=1, so the laws are checked against racy
// interleavings and the scheduler invariant auditor simultaneously.

// sumIDs sums every counter whose ID starts with prefix and contains
// substr (SumCounters alone cannot split e.g. egress from ingress links).
func sumIDs(snap *metrics.Snapshot, prefix, substr string) int64 {
	var total int64
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.ID, prefix) && strings.Contains(c.ID, substr) {
			total += c.Value
		}
	}
	return total
}

// TestConservationFabricBytes: every remote transfer crosses exactly one
// egress and one ingress NIC link, so the per-link byte counters must
// each sum to the fabric's remote-byte total, and cross-leaf traffic
// must be symmetric across the up and down spine links.
func TestConservationFabricBytes(t *testing.T) {
	res, err := Run(smallConfig(DEISA3))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	eg := sumIDs(m, "link/bytes{link=node", "-eg}")
	in := sumIDs(m, "link/bytes{link=node", "-in}")
	remote := m.Counter(metrics.ID("fabric", "bytes", metrics.L("scope", "remote")))
	if eg != remote || in != remote {
		t.Fatalf("link bytes egress=%d ingress=%d, fabric remote=%d", eg, in, remote)
	}
	if remote <= 0 {
		t.Fatal("no remote traffic recorded")
	}
	up := sumIDs(m, "link/bytes{link=leaf", "-up}")
	down := sumIDs(m, "link/bytes{link=leaf", "-down}")
	if up != down {
		t.Fatalf("spine traffic asymmetric: up=%d down=%d", up, down)
	}
	// Scattered blocks ride the fabric, so remote traffic bounds them.
	if shipped := m.SumCounters("bridge/shipped_bytes{"); remote < shipped {
		t.Fatalf("fabric carried %d bytes but bridges shipped %d", remote, shipped)
	}
}

// TestConservationPFSBytes: striping must conserve bytes — what the
// clients read and wrote equals what the OSTs transferred.
func TestConservationPFSBytes(t *testing.T) {
	res, err := Run(smallConfig(PostHocNewIPCA))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	osts := m.SumCounters("pfs/ost_bytes{")
	read := m.Counter(metrics.ID("pfs", "bytes", metrics.L("op", "read")))
	written := m.Counter(metrics.ID("pfs", "bytes", metrics.L("op", "write")))
	if osts != read+written {
		t.Fatalf("OSTs moved %d bytes, clients read %d + wrote %d = %d",
			osts, read, written, read+written)
	}
	if written <= 0 || read <= 0 {
		t.Fatalf("post hoc run did no I/O: read=%d written=%d", read, written)
	}
}

// TestConservationPublishes: every successful bridge publish lands one
// block in worker memory, flipping exactly one task external→memory at
// the scheduler, and every shipped byte is a byte some worker received.
func TestConservationPublishes(t *testing.T) {
	res, err := Run(smallConfig(DEISA3))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	published := m.SumCounters("bridge/publish_ok{")
	toMemory := m.Counter(metrics.ID("scheduler", "transitions",
		metrics.L("from", "external"), metrics.L("to", "memory")))
	if published != toMemory {
		t.Fatalf("bridges published %d blocks, scheduler saw %d external→memory transitions",
			published, toMemory)
	}
	if published != int64(res.Config.Ranks*res.Config.Timesteps) {
		t.Fatalf("published %d, want R*T = %d", published, res.Config.Ranks*res.Config.Timesteps)
	}
	shipped := m.SumCounters("bridge/shipped_bytes{")
	received := m.SumCounters("worker/scatter_bytes_received{")
	if shipped != received {
		t.Fatalf("bridges shipped %d bytes, workers received %d", shipped, received)
	}
}

// TestConservationPublishesUnderKills: the external→memory law must
// survive worker kills — lost blocks are moved back memory→external by
// the recovery path and republished, so every publish_ok still pairs
// with exactly one external→memory transition. (The byte-level
// shipped==received law is deliberately NOT asserted here: a scatter
// interrupted by a kill can count received bytes for a block whose
// publish ultimately failed.)
func TestConservationPublishesUnderKills(t *testing.T) {
	plan, err := chaos.ParsePlan("kill:1@1/1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(DEISA3)
	cfg.ChaosPlan = plan
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	published := m.SumCounters("bridge/publish_ok{")
	toMemory := m.Counter(metrics.ID("scheduler", "transitions",
		metrics.L("from", "external"), metrics.L("to", "memory")))
	if published != toMemory {
		t.Fatalf("under kills: published %d, external→memory transitions %d", published, toMemory)
	}
	backOut := m.Counter(metrics.ID("scheduler", "transitions",
		metrics.L("from", "memory"), metrics.L("to", "external")))
	if backOut <= 0 {
		t.Fatal("kill did not push any block back to external state")
	}
	if m.SumCounters("bridge/republished{") <= 0 {
		t.Fatal("kills recorded no republished block")
	}
}
