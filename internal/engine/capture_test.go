package engine_test

import (
	"strings"
	"testing"
	"time"

	"vats/internal/buffer"
	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/obs"
	"vats/internal/storage"
	"vats/internal/tprofiler"
)

// captureDB opens an engine with one seeded table. obsOn turns on an
// obs bundle that traces every transaction; prof configures a profiler.
func captureDB(t *testing.T, obsOn bool, prof *tprofiler.Profiler) (*engine.DB, *obs.Obs, *storage.Table) {
	t.Helper()
	ob := obs.NewWith(obs.Config{
		Variance: obs.VarianceConfig{Window: time.Hour},
		Sampling: obs.SamplingConfig{Budget: -1},
	})
	ob.SetEnabled(obsOn)
	db := engine.Open(engine.Config{Profiler: prof, Obs: ob})
	t.Cleanup(func() { db.Close() })
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.NewSession().Begin()
	for k := uint64(1); k <= 16; k++ {
		if err := tx.Insert(tab, k, make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, ob, tab
}

// TestSnapshotTxnFeedsVariance checks that a snapshot read is a
// transaction to the live variance engine like any other.
func TestSnapshotTxnFeedsVariance(t *testing.T) {
	db, ob, tab := captureDB(t, true, nil)
	s := db.NewSession()
	before := ob.Variance.Snapshot().N
	var buf []byte
	for i := 0; i < 100; i++ {
		snap := s.BeginSnapshot()
		var err error
		if buf, err = snap.GetInto(tab, uint64(1+i%16), buf[:0]); err != nil {
			t.Fatal(err)
		}
		snap.Close()
	}
	if n := ob.Variance.Snapshot().N - before; n != 100 {
		t.Fatalf("variance engine saw %d of 100 snapshot transactions", n)
	}
}

// TestCaptureAllocs bounds what capturing a transaction costs in
// allocations, against the same run with obs off and no profiler: the
// capture itself is one allocation and nothing downstream of it builds
// per-transaction maps or path strings.
func TestCaptureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	row := make([]byte, 32)
	txn := func(t *testing.T, db *engine.DB, tab *storage.Table) float64 {
		s := db.NewSession()
		run := func() {
			tx := s.Begin()
			if _, err := tx.Get(tab, 3); err != nil {
				t.Fatal(err)
			}
			if err := tx.Update(tab, 5, row); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}
	snapGet := func(t *testing.T, db *engine.DB, tab *storage.Table) float64 {
		s := db.NewSession()
		run := func() {
			snap := s.BeginSnapshot()
			if _, err := snap.Get(tab, 3); err != nil {
				t.Fatal(err)
			}
			snap.Close()
		}
		for i := 0; i < 64; i++ {
			run()
		}
		return testing.AllocsPerRun(200, run)
	}

	db, _, tab := captureDB(t, false, nil)
	baseTxn, baseSnap := txn(t, db, tab), snapGet(t, db, tab)
	if baseTxn > 14 || baseSnap > 2 {
		t.Errorf("obs off, no profiler: txn %v allocs (want <= 14), snapshot get %v (want <= 2)", baseTxn, baseSnap)
	}
	for _, c := range []struct {
		name  string
		obsOn bool
		prof  bool
		run   func(*testing.T, *engine.DB, *storage.Table) float64
		base  float64
		extra float64
	}{
		{"txn/obs-sampled", true, false, txn, baseTxn, 1},
		{"txn/profiled", false, true, txn, baseTxn, 4},
		{"snapshot-get/profiled", false, true, snapGet, baseSnap, 2},
	} {
		var prof *tprofiler.Profiler
		if c.prof {
			prof = tprofiler.New()
		}
		db, _, tab := captureDB(t, c.obsOn, prof)
		if got := c.run(t, db, tab); got > c.base+c.extra {
			t.Errorf("%s: %v allocs, %v without capture; want at most +%v", c.name, got, c.base, c.extra)
		} else {
			t.Logf("%s: %v allocs, %v without capture", c.name, got, c.base)
		}
	}
}

// TestObsRecordsHitPathPoolWaits checks that a transaction obs samples
// without a profiler records its buffer hits' LRU-mutex waits: every
// pool page stays resident and a second session keeps promoting pages
// under a costly critical section, so the sampled reads are contended
// hits and their wait must reach the buf.pool_mutex factor.
func TestObsRecordsHitPathPoolWaits(t *testing.T) {
	ob := obs.NewWith(obs.Config{
		Variance: obs.VarianceConfig{Window: time.Hour},
		Sampling: obs.SamplingConfig{Budget: -1},
	})
	ob.SetEnabled(true)
	fast := func(seed int64) disk.Device {
		return disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, BlockSize: 4096, PreciseWait: true, Seed: seed})
	}
	db := engine.Open(engine.Config{
		Obs:             ob,
		DataDevice:      fast(1),
		LogDevices:      []disk.Device{fast(2)},
		BufferCapacity:  8,
		PageSize:        1024,
		LRUPolicy:       buffer.EagerLRU,
		LRUCriticalCost: 20 * time.Microsecond,
	})
	defer db.Close()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Nine 300-byte rows fill three pages; every read below is a hit.
	const rows = 9
	tx := db.NewSession().Begin()
	for k := uint64(1); k <= rows; k++ {
		if err := tx.Insert(tab, k, make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := db.NewSession()
		for k := uint64(0); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			snap := s.BeginSnapshot()
			_, err := snap.Get(tab, 1+k%rows)
			snap.Close()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	s := db.NewSession()
	for i := 0; i < 300; i++ {
		tx := s.Begin()
		if _, err := tx.Get(tab, uint64(1+i%rows)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done

	for _, f := range ob.Variance.Snapshot().Factors {
		if f.Name == obs.FactorBufLRU {
			if f.MeanMs <= 0 {
				t.Fatalf("%s mean %v ms over contended hits, want > 0", f.Name, f.MeanMs)
			}
			t.Logf("%s mean %.4f ms", f.Name, f.MeanMs)
			return
		}
	}
	t.Fatalf("no %s factor recorded over contended hits", obs.FactorBufLRU)
}

// TestBufWaitsStayWithTheirTxn checks that device time a snapshot read
// leaves on the session's buffer handle does not reach the buf.io leaf
// of the session's next transaction: each snapshot read below misses,
// and the Get that follows it on the same page hits.
func TestBufWaitsStayWithTheirTxn(t *testing.T) {
	const latency = time.Millisecond
	prof := tprofiler.New()
	db := engine.Open(engine.Config{
		Profiler:       prof,
		DataDevice:     disk.New(disk.Config{MedianLatency: latency, BlockSize: 4096, PreciseWait: true, Seed: 1}),
		LogDevices:     []disk.Device{disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, BlockSize: 4096, PreciseWait: true, Seed: 2})},
		BufferCapacity: 2,
		PageSize:       1024,
	})
	defer db.Close()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	// Three 300-byte rows per page: 18 rows fill six pages, more than
	// the pool holds, so walking the pages in order misses every time.
	const rows, perPage = 18, 3
	s := db.NewSession()
	tx := s.Begin()
	for k := uint64(1); k <= rows; k++ {
		if err := tx.Insert(tab, k, make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		key := uint64(1 + (i*perPage)%rows)
		snap := s.BeginSnapshot()
		if _, err := snap.Get(tab, key); err != nil {
			t.Fatal(err)
		}
		snap.Close()
		tx := s.Begin()
		if _, err := tx.Get(tab, key); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	var worst *tprofiler.Node
	var walk func(n *tprofiler.Node)
	walk = func(n *tprofiler.Node) {
		if n.Name == "buf.io" && strings.HasPrefix(n.Path, "exec.select") && (worst == nil || n.Mean > worst.Mean) {
			worst = n
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Tree())
	if worst == nil {
		t.Fatal("no buf.io leaf under exec.select")
	}
	if limit := 0.05 * float64(latency) / float64(time.Millisecond); worst.Mean > limit {
		t.Fatalf("%s mean %.3f ms over hits, want ≤ %.3f ms: a snapshot's misses leaked into the next capture", worst.Path, worst.Mean, limit)
	}
}
