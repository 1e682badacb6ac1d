package workload_test

import (
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/harness"
	"vats/internal/lock"
	"vats/internal/storage"
	"vats/internal/workload"
)

func fastDB(t *testing.T, sched lock.Scheduler) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{
		Scheduler:        sched,
		DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: 1}),
		LogDevices:       []disk.Device{disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: 2})},
		LockTimeout:      time.Second,
		DeadlockInterval: time.Millisecond,
		BufferCapacity:   2048,
		PageSize:         4096,
	})
	t.Cleanup(db.Close)
	return db
}

// runWorkload loads wl and drives a short closed-loop run, failing on
// any unretryable error.
func runWorkload(t *testing.T, db *engine.DB, wl workload.Workload, count int) harness.Result {
	t.Helper()
	if err := wl.Load(db); err != nil {
		t.Fatalf("load: %v", err)
	}
	res, err := harness.Run(db, wl, harness.RunConfig{Clients: 6, Count: count, Seed: 42})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d workload errors", res.Errors)
	}
	if res.Overall.N != count {
		t.Fatalf("measured %d of %d", res.Overall.N, count)
	}
	return res
}

func TestByName(t *testing.T) {
	for _, n := range []string{"tpcc", "tpcc-small", "seats", "tatp", "epinions", "ycsb"} {
		wl, err := workload.ByName(n)
		if err != nil || wl == nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
	if _, err := workload.ByName("bogus"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestClientBeforeLoadFails(t *testing.T) {
	db := fastDB(t, nil)
	for _, name := range []string{"tpcc", "seats", "tatp", "epinions", "ycsb"} {
		wl, _ := workload.ByName(name)
		if _, err := wl.NewClient(db, 1); err == nil {
			t.Errorf("%s: client created before load", name)
		}
	}
}

func TestTPCCEndToEnd(t *testing.T) {
	db := fastDB(t, lock.VATS{})
	wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 2})
	res := runWorkload(t, db, wl, 300)

	// The mix must produce all five transaction types.
	for _, tag := range []string{workload.TagNewOrder, workload.TagPayment} {
		if res.PerTag[tag].N == 0 {
			t.Errorf("no %s transactions", tag)
		}
	}

	if n := checkTPCCConsistency(t, db, wl.Config()); n == 0 {
		t.Error("no orders created")
	}
}

func TestSEATSEndToEnd(t *testing.T) {
	db := fastDB(t, lock.VATS{})
	wl := workload.NewSEATS(workload.SEATSConfig{Flights: 8, SeatsPerFlight: 30, Customers: 100})
	runWorkload(t, db, wl, 300)

	// Invariant: each flight's openSeats equals its count of free seats.
	flight, _ := db.Table("flight")
	seat, _ := db.Table("seat")
	s := db.NewSession()
	tx := s.Begin()
	defer tx.Rollback()
	for f := 1; f <= 8; f++ {
		row, err := tx.Get(flight, uint64(f))
		if err != nil {
			t.Fatal(err)
		}
		open := storage.NewRowReader(row).Int64()
		free := int64(0)
		tx.Scan(seat, uint64(f)*1000+1, uint64(f)*1000+30, func(_ uint64, r []byte) bool {
			if storage.NewRowReader(r).Uint64() == 0 {
				free++
			}
			return true
		})
		if open != free {
			t.Errorf("flight %d: openSeats=%d but %d free seats", f, open, free)
		}
	}
}

func TestTATPEndToEnd(t *testing.T) {
	db := fastDB(t, lock.FCFS{})
	wl := workload.NewTATP(workload.TATPConfig{Subscribers: 300})
	res := runWorkload(t, db, wl, 300)
	reads := res.PerTag[workload.TagGetSubscriberData].N + res.PerTag[workload.TagGetAccessData].N
	if reads == 0 {
		t.Error("no read transactions")
	}
}

func TestEpinionsEndToEnd(t *testing.T) {
	db := fastDB(t, lock.FCFS{})
	wl := workload.NewEpinions(workload.EpinionsConfig{Users: 300, Items: 300})
	runWorkload(t, db, wl, 300)

	// Invariant: item review counters never go backwards (>= seed 1).
	item, _ := db.Table("eitem")
	s := db.NewSession()
	tx := s.Begin()
	defer tx.Rollback()
	row, err := tx.Get(item, 1)
	if err != nil {
		t.Fatal(err)
	}
	if storage.NewRowReader(row).Uint64() < 1 {
		t.Error("item lost its seed review count")
	}
}

func TestYCSBEndToEnd(t *testing.T) {
	db := fastDB(t, lock.FCFS{})
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 1000})
	res := runWorkload(t, db, wl, 300)
	if res.PerTag[workload.TagYCSBRead].N == 0 || res.PerTag[workload.TagYCSBUpdate].N == 0 {
		t.Error("mix missing reads or updates")
	}
}

func TestOpenLoopPacing(t *testing.T) {
	db := fastDB(t, nil)
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 500})
	if err := wl.Load(db); err != nil {
		t.Fatal(err)
	}
	const rate = 400.0
	const count = 100
	res, err := harness.Run(db, wl, harness.RunConfig{Clients: 4, Rate: rate, Count: count, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// An open-loop run at 400/s with 100 txns must take ≈ 250ms.
	want := time.Duration(float64(count) / rate * float64(time.Second))
	if res.Elapsed < want/2 {
		t.Errorf("elapsed %v; pacing not applied (want ≈ %v)", res.Elapsed, want)
	}
}

func TestWarmupExcluded(t *testing.T) {
	db := fastDB(t, nil)
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 500})
	if err := wl.Load(db); err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(db, wl, harness.RunConfig{Clients: 2, Count: 100, Warmup: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.N != 60 {
		t.Fatalf("measured %d, want 60 after warmup", res.Overall.N)
	}
}

func TestRatioTableRendering(t *testing.T) {
	db := fastDB(t, nil)
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 200})
	if err := wl.Load(db); err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(db, wl, harness.RunConfig{Clients: 2, Count: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := harness.RatioTable("test", res, []harness.Result{res})
	if out == "" || res.String() == "" {
		t.Fatal("empty rendering")
	}
}

func TestTPCCPaymentByNameIndex(t *testing.T) {
	db := fastDB(t, lock.FCFS{})
	wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 1})
	if err := wl.Load(db); err != nil {
		t.Fatal(err)
	}
	// The byName secondary index must cover every customer.
	customer, _ := db.Table("customer")
	s := db.NewSession()
	count := 0
	err := customer.IndexScan(s.Handle(), "byName", 0, ^uint64(0),
		func(uint64, []byte) bool { count++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if count != 10*30 {
		t.Fatalf("index covers %d customers, want 300", count)
	}
	// And payments (60% by name) must run cleanly against it.
	res, err := harness.Run(db, wl, harness.RunConfig{Clients: 4, Count: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
}
