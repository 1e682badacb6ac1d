package exec

import (
	"testing"

	"vats/internal/engine"
	"vats/internal/storage"
)

func benchDB(b *testing.B, n int) (*engine.DB, *storage.Table, *engine.Session) {
	b.Helper()
	db := engine.Open(fastCfg())
	b.Cleanup(db.Close)
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	tx := s.Begin()
	for k := uint64(1); k <= uint64(n); k++ {
		if err := tx.Insert(tab, k, row(k*10)); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return db, tab, s
}

// BenchmarkScanForms compares the composable iterator pipeline against
// the closure-based SnapshotTxn.Scan over the same 8k-row table with
// the same filter (even keys) — the cost of composition itself.
func BenchmarkScanForms(b *testing.B) {
	const n = 8192

	b.Run("IteratorCompose", func(b *testing.B) {
		_, tab, s := benchDB(b, n)
		snap := s.BeginSnapshot()
		defer snap.Close()
		pred := func(r Row) bool { return r.Key%2 == 0 }
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			it := Filter(NewTableScan(snap, tab, 0, ^uint64(0)), pred)
			for {
				r, ok := it.Next()
				if !ok {
					break
				}
				sum += rowVal(r.Data)
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n/2), "rows/scan")
		_ = sum
	})

	b.Run("ClosureScan", func(b *testing.B) {
		_, tab, s := benchDB(b, n)
		snap := s.BeginSnapshot()
		defer snap.Close()
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			err := snap.Scan(tab, 0, ^uint64(0), func(k uint64, img []byte) bool {
				if k%2 == 0 {
					sum += rowVal(img)
				}
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n/2), "rows/scan")
		_ = sum
	})

	// The pre-PR scan primitive: a read-committed closure scan inside a
	// regular transaction. Kept as the reference point for what version
	// resolution costs the snapshot forms above.
	b.Run("ReadCommittedScan", func(b *testing.B) {
		_, tab, s := benchDB(b, n)
		tx := s.Begin()
		defer tx.Rollback()
		b.ResetTimer()
		var sum uint64
		for i := 0; i < b.N; i++ {
			err := tx.Scan(tab, 0, ^uint64(0), func(k uint64, img []byte) bool {
				if k%2 == 0 {
					sum += rowVal(img)
				}
				return true
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n/2), "rows/scan")
		_ = sum
	})
}
