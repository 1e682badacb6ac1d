package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/storage"
	"vats/internal/wal"
)

func benchCfg(policy wal.FlushPolicy, parallel bool) Config {
	fast := func(seed int64) disk.Device {
		return disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, Sigma: 0, BlockSize: 4096, PreciseWait: true, Seed: seed})
	}
	logs := []disk.Device{fast(2)}
	if parallel {
		logs = append(logs, fast(3))
	}
	return Config{
		DataDevice:       fast(1),
		LogDevices:       logs,
		FlushPolicy:      policy,
		LogFlushInterval: time.Millisecond,
		LockTimeout:      5 * time.Second,
		BufferCapacity:   512,
		PageSize:         1024,
	}
}

// BenchmarkEngineCommit drives full engine transactions (3 updates +
// commit) through 8 concurrent sessions on disjoint key ranges, so the
// measured cost is the commit path itself — redo encoding, WAL hand-off
// and lock acquire/release — not data contention.
func BenchmarkEngineCommit(b *testing.B) {
	for _, bc := range []struct {
		name     string
		policy   wal.FlushPolicy
		parallel bool
	}{
		{"EagerSingle", wal.EagerFlush, false},
		{"LazyWriteSingle", wal.LazyWrite, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := Open(benchCfg(bc.policy, bc.parallel))
			defer db.Close()
			tab, _ := db.CreateTable("t")
			seed := db.NewSession()
			tx := seed.Begin()
			var rb storage.RowBuilder
			img := rb.Uint64(1).Bytes()
			for k := uint64(1); k <= 1024; k++ {
				if err := tx.Insert(tab, k, img); err != nil {
					b.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}

			var workers atomic.Uint64
			var txns atomic.Uint64
			start := time.Now()
			b.ReportAllocs()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				s := db.NewSession()
				base := (workers.Add(1) - 1) % 8 * 128
				i := uint64(0)
				for pb.Next() {
					i++
					err := s.RunTxn(3, func(tx *Txn) error {
						for k := uint64(0); k < 3; k++ {
							if err := tx.Update(tab, base+(i+k)%128+1, img); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Errorf("txn: %v", err)
						return
					}
					txns.Add(1)
				}
			})
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(txns.Load())/el, "txn/s")
			}
		})
	}
}
