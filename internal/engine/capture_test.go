package engine_test

import (
	"testing"
	"time"

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
