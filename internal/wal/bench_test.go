package wal

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
)

// benchDevice is a near-floor-latency log device: fast enough that the
// WAL's own synchronization — not simulated hardware — dominates, which
// is what the commit hot path benchmarks measure.
func benchDevice(seed int64) disk.Device {
	return disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, Sigma: 0, BlockSize: 4096, PreciseWait: true, Seed: seed})
}

// BenchmarkCommitThroughput drives 8 concurrent committers, each
// appending 4 redo records and committing, across the eager/lazy ×
// single/parallel grid. The EagerFlush/single-stream cell is the
// headline number tracked in BENCH_PR2.json.
func BenchmarkCommitThroughput(b *testing.B) {
	for _, bc := range []struct {
		name    string
		policy  FlushPolicy
		devices int
	}{
		{"EagerSingle", EagerFlush, 1},
		{"EagerParallel", EagerFlush, 2},
		{"LazyWriteSingle", LazyWrite, 1},
		{"LazyWriteParallel", LazyWrite, 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var devs []disk.Device
			for i := 0; i < bc.devices; i++ {
				devs = append(devs, benchDevice(int64(i+1)))
			}
			m := New(Config{Devices: devs, Policy: bc.policy, FlushInterval: time.Millisecond})
			defer m.Close()
			payload := make([]byte, 64)
			var txns atomic.Uint64
			start := time.Now()
			b.ReportAllocs()
			b.SetParallelism(8)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					txn := txns.Add(1)
					for r := 0; r < 4; r++ {
						if _, err := m.Append(txn, payload); err != nil {
							b.Errorf("append: %v", err)
							return
						}
					}
					if err := m.Commit(txn); err != nil {
						b.Errorf("commit: %v", err)
						return
					}
				}
			})
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(txns.Load())/el, "txn/s")
			}
		})
	}
}

// BenchmarkAppend measures the per-record append cost on one goroutine
// (the statement-time half of the commit path).
func BenchmarkAppend(b *testing.B) {
	m := New(Config{Devices: []disk.Device{benchDevice(1)}, Policy: LazyWrite, FlushInterval: time.Hour})
	defer m.Close()
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Append(uint64(i%128+1), payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Keep the log from growing unboundedly across -benchtime runs.
	_ = fmt.Sprintf("%d", m.Stats().Appends)
}
