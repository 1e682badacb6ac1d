package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/lock"
	"vats/internal/storage"
	"vats/internal/wal"
)

// TestDeviceStallDoesNotBreakCorrectness runs the workload against a
// fault-capable log device whose plan injects stalls: latencies spike
// but every commit remains atomic and durable, and the physical log
// image decodes to exactly what the in-memory log believes is durable.
func TestDeviceStallDoesNotBreakCorrectness(t *testing.T) {
	plan := disk.NewPlan(7, disk.FaultConfig{StallP: 0.05, StallDur: 10 * time.Millisecond})
	logDev := disk.New(disk.Config{MedianLatency: 20 * time.Microsecond, BlockSize: 4096, Seed: 1, Faults: plan})
	cfg := fastCfg()
	cfg.LogDevices = []disk.Device{logDev}
	db := Open(cfg)
	tab, _ := db.CreateTable("t")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		base := uint64(w * 1000)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := uint64(1); i <= 25; i++ {
				err := s.RunTxn(10, func(tx *Txn) error {
					return tx.Insert(tab, base+i, row(fmt.Sprintf("r%d", base+i)))
				})
				if err != nil {
					t.Errorf("insert during stall: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	db.Crash()
	if err := db.Log().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Recover from the physical device image, not the in-memory log:
	// the two must agree (no faults besides stalls were injected).
	phys := wal.RecoverDeviceEntries(logDev)
	mem := db.Log().RecoveredEntries()
	if len(phys) != len(mem) {
		t.Fatalf("device image has %d entries, in-memory log %d", len(phys), len(mem))
	}
	db2 := Open(fastCfg())
	defer db2.Close()
	tab2, _ := db2.CreateTable("t")
	if err := db2.Recover(phys); err != nil {
		t.Fatal(err)
	}
	if got := tab2.Len(); got != 100 {
		t.Fatalf("recovered %d rows, want 100", got)
	}
}

// TestDeadlockStormResolves throws many workers at two keys in opposite
// orders: the detector must keep resolving victims and the system must
// finish with no hangs and conserved state.
func TestDeadlockStormResolves(t *testing.T) {
	db := openFast(t)
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	tx := s.Begin()
	tx.Insert(tab, 1, row("a"))
	tx.Insert(tab, 2, row("b"))
	tx.Commit()

	var wg sync.WaitGroup
	var fails int64
	var mu sync.Mutex
	for w := 0; w < 12; w++ {
		wg.Add(1)
		w := w
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 15; i++ {
				first, second := uint64(1), uint64(2)
				if (w+i)%2 == 0 {
					first, second = second, first
				}
				err := sess.RunTxn(40, func(tx *Txn) error {
					if err := tx.Update(tab, first, row("x")); err != nil {
						return err
					}
					if err := tx.Update(tab, second, row("y")); err != nil {
						return err
					}
					return nil
				})
				if err != nil {
					mu.Lock()
					fails++
					mu.Unlock()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock storm hung")
	}
	if fails > 0 {
		t.Errorf("%d transactions failed despite 40 retries", fails)
	}
	if db.Locks().Stats().Deadlocks == 0 {
		t.Error("storm produced no detected deadlocks; test is vacuous")
	}
}

// TestLargeTransactionRollback rolls back a transaction spanning many
// pages and both inserts and updates.
func TestLargeTransactionRollback(t *testing.T) {
	db := openFast(t)
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	tx := s.Begin()
	for i := uint64(1); i <= 50; i++ {
		if err := tx.Insert(tab, i, row(fmt.Sprintf("seed%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = s.Begin()
	for i := uint64(1); i <= 50; i++ {
		if err := tx.Update(tab, i, row(fmt.Sprintf("mod%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(51); i <= 120; i++ {
		if err := tx.Insert(tab, i, row("bulk")); err != nil {
			t.Fatal(err)
		}
	}
	tx.Rollback()

	if tab.Len() != 50 {
		t.Fatalf("len = %d after rollback, want 50", tab.Len())
	}
	tx = s.Begin()
	for i := uint64(1); i <= 50; i++ {
		img, err := tx.Get(tab, i)
		if err != nil {
			t.Fatal(err)
		}
		if rowStr(t, img) != fmt.Sprintf("seed%d", i) {
			t.Fatalf("row %d = %q after rollback", i, rowStr(t, img))
		}
	}
	tx.Commit()
}

// TestScanDuringConcurrentWrites checks scans stay latch-consistent
// (no torn rows) while writers churn.
func TestScanDuringConcurrentWrites(t *testing.T) {
	db := openFast(t)
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	tx := s.Begin()
	for i := uint64(1); i <= 40; i++ {
		var b storage.RowBuilder
		tx.Insert(tab, i, b.Uint64(i).Uint64(i).Bytes()) // invariant: both fields equal
	}
	tx.Commit()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := db.NewSession()
		v := uint64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			v++
			k := v%40 + 1
			sess.RunTxn(10, func(tx *Txn) error {
				var b storage.RowBuilder
				return tx.Update(tab, k, b.Uint64(v).Uint64(v).Bytes())
			})
		}
	}()
	reader := db.NewSession()
	for round := 0; round < 20; round++ {
		err := reader.RunTxn(10, func(tx *Txn) error {
			return tx.Scan(tab, 1, 40, func(k uint64, img []byte) bool {
				r := storage.NewRowReader(img)
				a, b := r.Uint64(), r.Uint64()
				if a != b {
					t.Errorf("torn row %d: %d != %d", k, a, b)
				}
				return true
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRecoveryIdempotentOrdering replays a log with interleaved
// updates to the same key from different transactions: the final value
// must equal the last committed write.
func TestRecoveryIdempotentOrdering(t *testing.T) {
	db := Open(fastCfg())
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	tx := s.Begin()
	tx.Insert(tab, 1, row("v0"))
	tx.Commit()
	for i := 1; i <= 10; i++ {
		tx := s.Begin()
		if err := tx.Update(tab, 1, row(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Crash()
	db2 := Open(fastCfg())
	defer db2.Close()
	tab2, _ := db2.CreateTable("t")
	if err := db2.Recover(db.Log().RecoveredEntries()); err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession()
	tx2 := s2.Begin()
	img, err := tx2.Get(tab2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rowStr(t, img) != "v10" {
		t.Fatalf("recovered %q, want v10", rowStr(t, img))
	}
	tx2.Commit()
}

// TestBeginAtPreservesAgeAcrossRetries verifies the retry-age contract
// RunTxn relies on for VATS fairness.
func TestBeginAtPreservesAgeAcrossRetries(t *testing.T) {
	db := openFast(t)
	s := db.NewSession()
	birth := time.Now().Add(-time.Hour)
	tx := s.BeginAt(birth)
	if !tx.Birth().Equal(birth) {
		t.Fatal("BeginAt ignored the birth")
	}
	tx.Rollback()

	// RunTxn: both attempts must see the same birth.
	var births []time.Time
	attempt := 0
	err := s.RunTxn(1, func(tx *Txn) error {
		births = append(births, tx.Birth())
		attempt++
		if attempt == 1 {
			return lock.ErrDeadlock // force one retry
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(births) != 2 || !births[0].Equal(births[1]) {
		t.Fatalf("births differ across retries: %v", births)
	}
}
