package pfs

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"deisago/internal/metrics"
)

func testConfig() Config {
	return Config{OSTs: 4, OSTBandwidth: 1e6, StripeSize: 1024, MetaLatency: 1e-3}
}

func TestCreateWriteRead(t *testing.T) {
	fs := New(testConfig())
	end := fs.Create("a", 0)
	if end != 1e-3 {
		t.Fatalf("Create end = %v", end)
	}
	data := []byte("hello parallel world")
	end2, err := fs.WriteAt("a", 0, data, end)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= end {
		t.Fatal("write took no time")
	}
	got, _, err := fs.ReadAt("a", 0, int64(len(data)), end2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestWriteGrowsAndOverwrites(t *testing.T) {
	fs := New(testConfig())
	fs.Create("f", 0)
	fs.WriteAt("f", 10, []byte{1, 2, 3}, 0)
	sz, err := fs.Size("f")
	if err != nil || sz != 13 {
		t.Fatalf("Size = %d, err %v", sz, err)
	}
	fs.WriteAt("f", 11, []byte{9}, 0)
	got, _, _ := fs.ReadAt("f", 10, 3, 0)
	if !bytes.Equal(got, []byte{1, 9, 3}) {
		t.Fatalf("overwrite result %v", got)
	}
	// Holes read as zero.
	hole, _, _ := fs.ReadAt("f", 0, 10, 0)
	for _, b := range hole {
		if b != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
}

func TestReadBeyondEOF(t *testing.T) {
	fs := New(testConfig())
	fs.Create("f", 0)
	fs.WriteAt("f", 0, []byte{1}, 0)
	if _, _, err := fs.ReadAt("f", 0, 2, 0); err == nil {
		t.Fatal("read beyond EOF should error")
	}
}

func TestMissingFile(t *testing.T) {
	fs := New(testConfig())
	if _, err := fs.WriteAt("nope", 0, []byte{1}, 0); err == nil {
		t.Fatal("write to missing file should error")
	}
	if _, _, err := fs.ReadAt("nope", 0, 1, 0); err == nil {
		t.Fatal("read of missing file should error")
	}
	if _, err := fs.Size("nope"); err == nil {
		t.Fatal("stat of missing file should error")
	}
	if _, err := fs.Remove("nope", 0); err == nil {
		t.Fatal("remove of missing file should error")
	}
}

func TestRemoveAndList(t *testing.T) {
	fs := New(testConfig())
	fs.Create("b", 0)
	fs.Create("a", 0)
	got := fs.List()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("List = %v", got)
	}
	if _, err := fs.Remove("a", 0); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || !fs.Exists("b") {
		t.Fatal("Remove/Exists inconsistent")
	}
}

func TestStripingUsesAllOSTs(t *testing.T) {
	cfg := testConfig() // 4 OSTs, 1 MB/s each, 1 KiB stripes
	fs := New(cfg)
	fs.Create("f", 0)
	// 4 KiB spans all 4 OSTs once: parallel write should cost ~1 stripe
	// time, not 4.
	end, err := fs.WriteAt("f", 0, make([]byte, 4096), 0)
	if err != nil {
		t.Fatal(err)
	}
	oneStripe := 1024 / cfg.OSTBandwidth
	if math.Abs(end-oneStripe) > 1e-9 {
		t.Fatalf("striped write end = %v, want %v", end, oneStripe)
	}
}

func TestAggregateBandwidthCap(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	fs.Create("f", 0)
	// Write 64 KiB: no matter the striping, total service is
	// bytes/aggregate-bandwidth when spread perfectly.
	total := int64(64 << 10)
	end, _ := fs.WriteAt("f", 0, make([]byte, total), 0)
	want := float64(total) / fs.AggregateBandwidth()
	if math.Abs(end-want) > 1e-9 {
		t.Fatalf("write end = %v, want %v", end, want)
	}
}

func TestContentionBetweenWriters(t *testing.T) {
	cfg := testConfig()
	fs := New(cfg)
	fs.Create("a", 0)
	fs.Create("b", 0)
	// Two writers, same offsets (same OSTs), departing together: second
	// queue behind the first.
	n := int64(8 << 10)
	e1, _ := fs.WriteAt("a", 0, make([]byte, n), 0)
	e2, _ := fs.WriteAt("b", 0, make([]byte, n), 0)
	if e2 < 2*e1*0.99 {
		t.Fatalf("no contention: first=%v second=%v", e1, e2)
	}
}

func TestTraffic(t *testing.T) {
	fs := New(testConfig())
	reg := metrics.NewRegistry()
	fs.UseMetrics(reg)
	fs.Create("f", 0)
	fs.WriteAt("f", 0, make([]byte, 100), 0)
	fs.ReadAt("f", 0, 40, 0)
	fs.ReadAtCost("f", 0, 10, 1000, 0) // the modelled size is what counts
	snap := reg.Snapshot()
	r, w := snap.Counter("pfs/bytes{op=read}"), snap.Counter("pfs/bytes{op=write}")
	if r != 1040 || w != 100 {
		t.Fatalf("pfs/bytes read/write = (%d,%d), want (1040,100)", r, w)
	}
	if ost := snap.SumCounters("pfs/ost_bytes{"); ost != r+w {
		t.Fatalf("per-OST bytes sum to %d, want %d", ost, r+w)
	}
	// The bandwidth-share gauge reads the same counters.
	fs.RecordUtilization(1)
	if got, want := reg.Gauge("pfs", "aggregate_bw_share").Value(), float64(r+w)/fs.AggregateBandwidth(); got != want {
		t.Fatalf("aggregate_bw_share = %g, want %g", got, want)
	}
}

func TestZeroByteOps(t *testing.T) {
	fs := New(testConfig())
	fs.Create("f", 0)
	end, err := fs.WriteAt("f", 0, nil, 5)
	if err != nil || end != 5 {
		t.Fatalf("zero write end=%v err=%v", end, err)
	}
	got, end, err := fs.ReadAt("f", 0, 0, 5)
	if err != nil || end != 5 || len(got) != 0 {
		t.Fatalf("zero read got=%v end=%v err=%v", got, end, err)
	}
}

// Property: write-then-read returns exactly the written bytes for random
// offsets and sizes, and virtual time never decreases.
func TestWriteReadRoundtripQuick(t *testing.T) {
	fs := New(testConfig())
	fs.Create("q", 0)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		off := int64(rng.Intn(8192))
		n := rng.Intn(4096) + 1
		p := make([]byte, n)
		rng.Read(p)
		at := rng.Float64() * 10
		end, err := fs.WriteAt("q", off, p, at)
		if err != nil || end < at {
			return false
		}
		got, end2, err := fs.ReadAt("q", off, int64(n), end)
		if err != nil || end2 < end {
			return false
		}
		return bytes.Equal(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{OSTs: 0, OSTBandwidth: 1, StripeSize: 1})
}
