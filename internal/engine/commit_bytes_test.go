package engine_test

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
)

// TestUpdateCommitBytes bounds the heap bytes a one-row Update+Commit
// transaction allocates on a large table, and what one GC pass over the
// versions those transactions left behind allocates. A commit stamp
// and a GC rewrite change a key's row head in place; if either went
// back to copying the clustered index's B+-tree path, both bounds
// would fail by an order of magnitude.
func TestUpdateCommitBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const (
		rows    = 100_000
		updates = 5_000
	)
	fast := func(seed int64) disk.Device {
		return disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, BlockSize: 4096, PreciseWait: true, Seed: seed})
	}
	db := engine.Open(engine.Config{
		DataDevice:     fast(1),
		LogDevices:     []disk.Device{fast(2)},
		BufferCapacity: 8192,
		MVCCGCInterval: -1, // GC runs once, below, where it is measured
	})
	defer db.Close()
	tab, err := db.CreateTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	row := make([]byte, 100)
	for k := uint64(1); k <= rows; {
		tx := s.Begin()
		for end := k + 1000; k < end; k++ {
			if err := tx.Insert(tab, k, row); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.RunGC()

	rng := rand.New(rand.NewSource(1))
	txn := func() {
		row[0]++
		tx := s.Begin()
		if err := tx.Update(tab, uint64(rng.Intn(rows))+1, row); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		txn() // warm the session's spare buffers
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < updates; i++ {
		txn()
	}
	runtime.ReadMemStats(&after)
	perTxn := float64(after.TotalAlloc-before.TotalAlloc) / updates

	runtime.ReadMemStats(&before)
	freed := db.RunGC()
	runtime.ReadMemStats(&after)
	gcBytes := after.TotalAlloc - before.TotalAlloc

	t.Logf("%.0f B per update transaction; GC freed %d versions allocating %d B", perTxn, freed, gcBytes)
	if perTxn > 2048 {
		t.Errorf("%.0f B per update transaction, want <= 2048", perTxn)
	}
	if freed < updates/2 {
		t.Errorf("GC freed %d versions after %d updates", freed, updates)
	}
	if gcBytes > 64<<10 {
		t.Errorf("one GC pass allocated %d B, want <= %d", gcBytes, 64<<10)
	}
}
