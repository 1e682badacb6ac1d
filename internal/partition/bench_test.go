package partition_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/partition"
	"vats/internal/workload"
)

// openBench builds a partitioned engine where every partition is an
// identical, fully independent engine instance: its own executor
// workers, lock manager, 32-page buffer pool, and its own simulated
// data + log spindles with the default latency profile (~300µs median,
// rare 8x stalls). The working set deliberately exceeds the per-
// partition buffer pool, so single-partition TPC-C is bound by each
// partition's data device — the serialized resource that horizontal
// partitioning multiplies. This is the H-Store deployment shape: N
// partitions mean N executors, N pools, and N spindles, so aggregate
// bandwidth (and the measured throughput) scales with the partition
// count even on a single-CPU simulation host, where all device waits
// are sleeps and overlap in wall time.
func openBench(parts int) *partition.DB {
	mk := func(name string, s int64) disk.Device {
		return disk.New(disk.DefaultConfig(name, s))
	}
	db, err := partition.Open(partition.Options{
		Partitions: parts,
		EngineFor: func(p int, base engine.Config) engine.Config {
			s := int64(100 + 1000*p)
			return engine.Config{
				BufferCapacity: 32,
				PageSize:       1024,
				LockTimeout:    2 * time.Second,
				DataDevice:     mk("data", s+1),
				LogDevices:     []disk.Device{mk("log0", s+2)},
				Seed:           s,
			}
		},
	})
	if err != nil {
		panic(err)
	}
	return db
}

// benchPartTPCC drives b.N TPC-C transactions through the router from
// 16 closed-loop clients over 8 warehouses.
func benchPartTPCC(b *testing.B, parts int, cross float64) {
	pdb := openBench(parts)
	defer pdb.Close()
	wl := workload.NewPartitionedTPCC(workload.TPCCConfig{Warehouses: 8}, cross)
	if err := wl.LoadPartitioned(pdb); err != nil {
		b.Fatal(err)
	}
	const clients = 16
	cls := make([]workload.Client, clients)
	for i := range cls {
		c, err := wl.NewPartitionedClient(pdb, int64(i)*7919+1)
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = c
	}
	b.ResetTimer()
	var next atomic.Int64
	var errs atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func(c workload.Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := c.Run(); err != nil {
					errs.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if n := errs.Load(); n > 0 {
		b.Fatalf("%d transaction errors", n)
	}
	st := pdb.Stats()
	if total := st.Single + st.Multi; total > 0 {
		b.ReportMetric(float64(st.Multi)/float64(total), "multi-ratio")
	}
}

// BenchmarkPartitionedTPCC measures single-partition TPC-C scaling:
// same 8 warehouses, same 16 clients, engine split 1-, 2- and 4-way.
// Run with -cpu 1,2,4,8 to see the scaling interact with the executor
// worker count (workers default to GOMAXPROCS/partitions, floor 1).
func BenchmarkPartitionedTPCC(b *testing.B) {
	for _, parts := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parts_%d", parts), func(b *testing.B) {
			benchPartTPCC(b, parts, 0)
		})
	}
}

// BenchmarkPartitionedTPCCCross measures multi-partition-ratio
// sensitivity at 4 partitions: 0%, 5% and 20% cross-warehouse Payments
// and NewOrder remote supply lines, each multi-partition transaction
// paying two forced-durable 2PC rounds.
func BenchmarkPartitionedTPCCCross(b *testing.B) {
	for _, pct := range []int{0, 5, 20} {
		b.Run(fmt.Sprintf("x%d", pct), func(b *testing.B) {
			benchPartTPCC(b, 4, float64(pct)/100)
		})
	}
}
