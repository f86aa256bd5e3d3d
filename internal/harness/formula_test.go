package harness

import (
	"fmt"
	"math"
	"testing"

	"deisago/internal/core"
	"deisago/internal/metrics"
)

// This file checks the paper's §2.1 message-count claim as exact formulas
// over a (T, R, heartbeat) matrix, read from the metrics registry rather
// than hand-wired counter fields: DEISA1 costs 2·T·R coordination
// messages plus heartbeats plus T·R metadata refreshes at the scheduler,
// while the external-task design exchanges exactly 1+R contract-variable
// operations, independent of T.

// msgKind reads the scheduler's per-kind message counter from a result.
func msgKind(t *testing.T, res *Result, kind string) int64 {
	t.Helper()
	if res.Metrics == nil {
		t.Fatal("run produced no metrics snapshot")
	}
	return res.Metrics.Counter(metrics.ID("scheduler", "messages", metrics.L("kind", kind)))
}

// varOps reads the scheduler's per-variable operation counter.
func varOps(res *Result, name, op string) int64 {
	return res.Metrics.Counter(metrics.ID("scheduler", "variable_ops",
		metrics.L("name", name), metrics.L("op", op)))
}

func formulaConfig(sys System, T, R, W int, hb float64) Config {
	return Config{
		System:            sys,
		Ranks:             R,
		Workers:           W,
		Timesteps:         T,
		BlockBytes:        1 << 20,
		Seed:              7,
		HeartbeatOverride: hb,
	}
}

func TestFormulaMatrix(t *testing.T) {
	cases := []struct{ T, R, W int }{
		{2, 2, 2},
		{3, 4, 2},
		{4, 8, 4},
	}
	// A 5 ms virtual heartbeat guarantees beats fire even in the shortest
	// of these runs (makespans start around 40 ms) without flooding the
	// scheduler; +Inf disables them (the DEISA3 default).
	for _, hb := range []float64{5e-3, math.Inf(1)} {
		for _, c := range cases {
			name := fmt.Sprintf("T%d-R%d-hb%g", c.T, c.R, hb)
			t.Run("DEISA1/"+name, func(t *testing.T) {
				res, err := Run(formulaConfig(DEISA1, c.T, c.R, c.W, hb))
				if err != nil {
					t.Fatal(err)
				}
				T, R := int64(c.T), int64(c.R)
				put := msgKind(t, res, "queue-put")
				get := msgKind(t, res, "queue-get")
				meta := msgKind(t, res, "metadata")
				beats := msgKind(t, res, "heartbeat")
				if put != T*R || get != T*R {
					t.Fatalf("queue messages put=%d get=%d, want %d each", put, get, T*R)
				}
				if meta != T*R {
					t.Fatalf("metadata refreshes = %d, want T*R = %d", meta, T*R)
				}
				// The §2.1 formula: per-step coordination costs 2·T·R
				// messages plus however many heartbeats the run emitted.
				if coord := put + get + beats; coord != 2*T*R+beats {
					t.Fatalf("coordination msgs = %d, want 2*T*R+heartbeats = %d", coord, 2*T*R+beats)
				}
				if math.IsInf(hb, 1) {
					if beats != 0 {
						t.Fatalf("infinite interval sent %d heartbeats", beats)
					}
				} else if beats == 0 {
					t.Fatal("finite interval sent no heartbeats")
				}
				// The dask/* totals must agree with the per-kind counts.
				if q := res.Metrics.Counter("dask/queue_ops"); q != put+get {
					t.Fatalf("dask/queue_ops=%d, per-kind=%d", q, put+get)
				}
				if m, b := res.Metrics.Counter("dask/metadata_msgs"), res.Metrics.Counter("dask/heartbeats"); m != meta || b != beats {
					t.Fatalf("dask meta=%d hb=%d, per-kind meta=%d hb=%d", m, b, meta, beats)
				}
				// Every message the scheduler handled carries a kind label;
				// the per-kind counters must sum to the grand total.
				if sum, total := res.Metrics.SumCounters("scheduler/messages{"), res.Metrics.Counter("dask/total_scheduler_msgs"); sum != total {
					t.Fatalf("kind counters sum to %d, total_scheduler_msgs=%d", sum, total)
				}
				if ext := res.Metrics.Counter("dask/external_created"); ext != 0 {
					t.Fatalf("DEISA1 created %d external tasks", ext)
				}
			})
			t.Run("DEISA3/"+name, func(t *testing.T) {
				res, err := Run(formulaConfig(DEISA3, c.T, c.R, c.W, hb))
				if err != nil {
					t.Fatal(err)
				}
				T, R := int64(c.T), int64(c.R)
				// The headline claim: the contract variable is written once
				// by the adaptor and read once per bridge — 1+R operations,
				// independent of T.
				set := varOps(res, core.ContractVariable, "set")
				get := varOps(res, core.ContractVariable, "get")
				if set != 1 || get != R {
					t.Fatalf("contract ops set=%d get=%d, want 1 and R=%d", set, get, R)
				}
				if total := set + get; total != 1+R {
					t.Fatalf("contract messages = %d, want 1+R = %d", total, 1+R)
				}
				if put, qget := msgKind(t, res, "queue-put"), msgKind(t, res, "queue-get"); put != 0 || qget != 0 {
					t.Fatalf("DEISA3 used queues: put=%d get=%d", put, qget)
				}
				if meta := msgKind(t, res, "metadata"); meta != 0 {
					t.Fatalf("DEISA3 sent %d metadata refreshes", meta)
				}
				if ext := res.Metrics.Counter("dask/external_created"); ext != T*R {
					t.Fatalf("external tasks = %d, want T*R = %d", ext, T*R)
				}
				if ud := msgKind(t, res, "update-data"); ud != T*R {
					t.Fatalf("update-data msgs = %d, want T*R = %d", ud, T*R)
				}
				if g := res.Metrics.Counter("dask/graphs_submitted"); g != 1 {
					t.Fatalf("graphs = %d, want exactly 1 (ahead-of-time submission)", g)
				}
				beats := msgKind(t, res, "heartbeat")
				if math.IsInf(hb, 1) && beats != 0 {
					t.Fatalf("infinite interval sent %d heartbeats", beats)
				}
				if sum, total := res.Metrics.SumCounters("scheduler/messages{"), res.Metrics.Counter("dask/total_scheduler_msgs"); sum != total {
					t.Fatalf("kind counters sum to %d, total_scheduler_msgs=%d", sum, total)
				}
			})
		}
	}
}
