package harness

import (
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/partition"
	"vats/internal/workload"
)

func openPartitionedTPCC(t *testing.T, parts int, cross float64) (*partition.DB, *workload.PartitionedTPCC) {
	t.Helper()
	mk := func(name string, s int64) disk.Device {
		dc := disk.DefaultConfig(name, s)
		dc.MedianLatency = 2 * time.Microsecond
		return disk.New(dc)
	}
	pdb, err := partition.Open(partition.Options{
		Partitions: parts,
		Workers:    2,
		EngineFor: func(p int, base engine.Config) engine.Config {
			s := int64(9000 + 100*p)
			return engine.Config{
				BufferCapacity: 512,
				LockTimeout:    500 * time.Millisecond,
				DataDevice:     mk("data", s+1),
				LogDevices:     []disk.Device{mk("log0", s+2)},
				Seed:           s,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewPartitionedTPCC(workload.TPCCConfig{Warehouses: 4}, cross)
	if err := wl.LoadPartitioned(pdb); err != nil {
		pdb.Close()
		t.Fatal(err)
	}
	return pdb, wl
}

// TestPartitionedTPCCSingleOnly: with 0% cross-warehouse probability
// every TPC-C transaction is single-partition — the routing fast path.
func TestPartitionedTPCCSingleOnly(t *testing.T) {
	pdb, wl := openPartitionedTPCC(t, 2, 0)
	defer pdb.Close()
	res, err := RunPartitioned(pdb, wl, RunConfig{Clients: 4, Count: 300, Warmup: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	st := pdb.Stats()
	if st.Multi != 0 {
		t.Fatalf("multi = %d, want 0 at 0%% cross", st.Multi)
	}
	if st.Single == 0 {
		t.Fatal("no single-partition txns recorded")
	}
}

// TestPartitionedTPCCCrossWarehouse: cross-warehouse Payments and
// NewOrders actually route multi-partition and commit via 2PC.
func TestPartitionedTPCCCrossWarehouse(t *testing.T) {
	pdb, wl := openPartitionedTPCC(t, 2, 0.5)
	defer pdb.Close()
	res, err := RunPartitioned(pdb, wl, RunConfig{Clients: 4, Count: 300, Warmup: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	st := pdb.Stats()
	if st.Multi == 0 {
		t.Fatal("expected multi-partition commits at 50% cross-warehouse")
	}
	t.Logf("single=%d multi=%d aborts=%d perPart=%v", st.Single, st.Multi, st.MultiAborts, st.PerPartition)
}
