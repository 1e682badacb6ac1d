package workload_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/harness"
	"vats/internal/lock"
	"vats/internal/partition"
	"vats/internal/storage"
	"vats/internal/workload"
)

var tpccSchema = []string{"warehouse", "district", "customer", "item", "stock",
	"orders", "orderline", "neworder", "history"}

// openTPCCPartitions opens a partitioned engine on fast simulated
// devices, loaded with W warehouses of partitioned TPC-C.
func openTPCCPartitions(t *testing.T, parts, warehouses int, cross float64) (*partition.DB, *workload.PartitionedTPCC) {
	t.Helper()
	pdb, err := partition.Open(partition.Options{
		Partitions: parts,
		Workers:    2,
		EngineFor: func(p int, _ engine.Config) engine.Config {
			s := int64(10 * (p + 1))
			return engine.Config{
				Scheduler:        lock.VATS{},
				DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: s + 1}),
				LogDevices:       []disk.Device{disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: s + 2})},
				LockTimeout:      time.Second,
				DeadlockInterval: time.Millisecond,
				BufferCapacity:   2048,
				PageSize:         4096,
				Seed:             s,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pdb.Close)
	wl := workload.NewPartitionedTPCC(workload.TPCCConfig{Warehouses: warehouses}, cross)
	if err := wl.LoadPartitioned(pdb); err != nil {
		t.Fatal(err)
	}
	return pdb, wl
}

// hashTables feeds every table's (key, row) pairs, read through a
// snapshot scan, into h in a fixed table order.
func hashTables(t *testing.T, h hash.Hash, db *engine.DB) {
	t.Helper()
	snap := db.NewSession().BeginSnapshot()
	defer snap.Close()
	var k [8]byte
	for _, name := range tpccSchema {
		tbl, ok := db.Table(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		fmt.Fprintf(h, "%s\n", name)
		if err := snap.Scan(tbl, 0, ^uint64(0), func(key uint64, row []byte) bool {
			binary.LittleEndian.PutUint64(k[:], key)
			h.Write(k[:])
			binary.LittleEndian.PutUint64(k[:], uint64(len(row)))
			h.Write(k[:])
			h.Write(row)
			return true
		}); err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
	}
}

// runStream runs n transactions from one terminal, sequentially, and
// feeds the tag sequence into h.
func runStream(t *testing.T, h hash.Hash, c workload.Client, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tag, err := c.Run()
		if err != nil {
			t.Fatalf("txn %d (%s): %v", i, tag, err)
		}
		fmt.Fprintf(h, "%s\n", tag)
	}
}

// TestTPCCStreamDigest pins the transaction stream each TPC-C terminal
// generates: its tag sequence and the database it leaves behind. A
// change to any input draw, its order, or a body's reads and writes
// changes the digest, and with it every TPC-C experiment's stream.
func TestTPCCStreamDigest(t *testing.T) {
	const (
		singleDigest = "815da6d5b0345936521649a481a543daead2bdf48b5f1b4ed4dc677614ef5fa9"
		partDigest   = "5921adb983e80fdb2e050afac0bdcf8f8c02e6b240f5efe1a9153b617fc82773"
	)
	t.Run("single", func(t *testing.T) {
		db := fastDB(t, lock.VATS{})
		wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 2})
		if err := wl.Load(db); err != nil {
			t.Fatal(err)
		}
		c, err := wl.NewClient(db, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		runStream(t, h, c, 400)
		hashTables(t, h, db)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != singleDigest {
			t.Errorf("single-engine stream digest %s, want %s", got, singleDigest)
		}
	})
	t.Run("partitioned", func(t *testing.T) {
		pdb, wl := openTPCCPartitions(t, 2, 4, 0.5)
		c, err := wl.NewPartitionedClient(pdb, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		runStream(t, h, c, 400)
		for p := 0; p < pdb.Partitions(); p++ {
			fmt.Fprintf(h, "partition %d\n", p)
			hashTables(t, h, pdb.Partition(p))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != partDigest {
			t.Errorf("partitioned stream digest %s, want %s", got, partDigest)
		}
	})
}

// TestTPCCConsistencyUnderConcurrency runs concurrent terminals on one
// engine and on two partitions (half the Payments and NewOrders cross
// warehouses, so they commit through 2PC), then audits TPC-C's
// consistency conditions on every engine.
func TestTPCCConsistencyUnderConcurrency(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		db := fastDB(t, lock.VATS{})
		wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 2})
		if err := wl.Load(db); err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(db, wl, harness.RunConfig{Clients: 8, Count: 1500, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d errors", res.Errors)
		}
		if n := checkTPCCConsistency(t, db, wl.Config()); n == 0 {
			t.Error("no orders created")
		}
	})
	t.Run("partitioned", func(t *testing.T) {
		pdb, wl := openTPCCPartitions(t, 2, 4, 0.5)
		res, err := harness.RunPartitioned(pdb, wl, harness.RunConfig{Clients: 4, Count: 800, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d errors", res.Errors)
		}
		if st := pdb.Stats(); st.Multi == 0 {
			t.Fatal("no multi-partition transactions")
		}
		orders := 0
		for p := 0; p < pdb.Partitions(); p++ {
			orders += checkTPCCConsistency(t, pdb.Partition(p), wl.Config())
		}
		if orders == 0 {
			t.Error("no orders created")
		}
	})
}

// checkTPCCConsistency audits TPC-C's consistency conditions on one
// engine: W_YTD = Σ D_YTD per warehouse; per district, count(orders) =
// max(O_ID) = D_NEXT_O_ID − 1; every neworder key has an orders row.
// Only the warehouses whose rows db holds are checked. It returns the
// number of orders seen.
func checkTPCCConsistency(t *testing.T, db *engine.DB, cfg workload.TPCCConfig) int {
	t.Helper()
	tbl := func(name string) *storage.Table {
		tb, ok := db.Table(name)
		if !ok {
			t.Fatalf("table %q missing", name)
		}
		return tb
	}
	warehouse, district, orders, neworder := tbl("warehouse"), tbl("district"), tbl("orders"), tbl("neworder")
	snap := db.NewSession().BeginSnapshot()
	defer snap.Close()
	total := 0
	for wh := 1; wh <= cfg.Warehouses; wh++ {
		wrow, err := snap.Get(warehouse, uint64(wh))
		if err != nil {
			continue // another partition's warehouse
		}
		wytd := storage.NewRowReader(wrow).Float64()
		dytd := 0.0
		for d := 1; d <= cfg.DistrictsPerWarehouse; d++ {
			dkey := uint64(wh)*100 + uint64(d)
			drow, err := snap.Get(district, dkey)
			if err != nil {
				t.Fatalf("district %d: %v", dkey, err)
			}
			dr := storage.NewRowReader(drow)
			nextO := dr.Uint64()
			dytd += dr.Float64()
			count, maxO := uint64(0), uint64(0)
			base := dkey * 1_000_000
			if err := snap.Scan(orders, base, base+999_999, func(okey uint64, _ []byte) bool {
				count++
				maxO = okey - base
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if count != nextO-1 || maxO != nextO-1 {
				t.Errorf("district %d: next_o_id %d, %d orders, max o_id %d", dkey, nextO, count, maxO)
			}
			total += int(count)
		}
		if wytd != dytd {
			t.Errorf("warehouse %d: w_ytd %v != Σ d_ytd %v", wh, wytd, dytd)
		}
	}
	if err := snap.Scan(neworder, 0, ^uint64(0), func(okey uint64, _ []byte) bool {
		if _, err := snap.Get(orders, okey); err != nil {
			t.Errorf("neworder %d has no order: %v", okey, err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return total
}
