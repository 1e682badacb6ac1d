package engine

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/storage"
	"vats/internal/wal"
)

// TestCrashInsideCheckpointWindow sweeps the machine crash point across
// every device op of a second checkpoint's begin→end window. Wherever
// the crash lands, recovery must either adopt the second checkpoint (it
// completed before the crash op) or fall back to the first one — and in
// both cases reconstruct the exact committed state, including the
// commit that raced in between the two checkpoints.
func TestCrashInsideCheckpointWindow(t *testing.T) {
	load := func(db *DB) *storage.Table {
		tab, err := db.CreateTable("t")
		if err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		for i := uint64(1); i <= 5; i++ {
			tx := s.Begin()
			if err := tx.Insert(tab, i, row(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		if err := tx.Insert(tab, 6, row("v6")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return tab
	}

	// Probe: count the ops the second checkpoint consumes with no faults.
	probe := disk.NewPlan(77, disk.FaultConfig{})
	db, _ := matrixOpen(t, "sim", false, wal.EagerFlush, probe)
	load(db)
	opsBefore := probe.Ops()
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	opsAfter := probe.Ops()
	db.Crash()
	if opsAfter <= opsBefore {
		t.Fatalf("second checkpoint consumed no device ops (%d -> %d)", opsBefore, opsAfter)
	}

	for crashOp := opsBefore + 1; crashOp <= opsAfter; crashOp++ {
		t.Run(fmt.Sprintf("crashop=%d", crashOp), func(t *testing.T) {
			plan := disk.NewPlan(77, disk.FaultConfig{CrashOp: crashOp, CrashTorn: 0.5})
			db, devs := matrixOpen(t, "sim", false, wal.EagerFlush, plan)
			load(db)
			if _, err := db.Checkpoint(); err == nil {
				t.Fatal("checkpoint survived its own crash point")
			}
			db.Crash()

			db2 := Open(fastCfg())
			defer db2.Close()
			tab2, _ := db2.CreateTable("t")
			if err := db2.Recover(wal.RecoverDeviceEntries(devs...)); err != nil {
				t.Fatalf("recover: %v", err)
			}
			if err := db2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			s2 := db2.NewSession()
			tx2 := s2.Begin()
			defer tx2.Rollback()
			for i := uint64(1); i <= 6; i++ {
				img, err := tx2.Get(tab2, i)
				if err != nil {
					t.Fatalf("key %d lost after crash at op %d: %v", i, crashOp, err)
				}
				if got, want := rowStr(t, img), fmt.Sprintf("v%d", i); got != want {
					t.Fatalf("key %d = %q, want %q", i, got, want)
				}
			}
			if tab2.Len() != 6 {
				t.Fatalf("recovered %d rows, want 6", tab2.Len())
			}
		})
	}
}

// TestPartialFuzzyCheckpointFallsBack forges the exact image a crash
// between ckptBegin and ckptEnd leaves behind — begin marker and some
// rows, no end — on top of an older complete checkpoint, and asserts
// recovery rejects the torn one and restores from its predecessor.
func TestPartialFuzzyCheckpointFallsBack(t *testing.T) {
	db := Open(fastCfg())
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	for i := uint64(1); i <= 4; i++ {
		tx := s.Begin()
		tx.Insert(tab, i, row(fmt.Sprintf("v%d", i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The torn second checkpoint: begin + one row, end marker lost.
	ckptID := db.nextTxn.Add(1)
	db.Log().Append(ckptID, encodeRedo(redoCkptBegin, 0, 1, nil))
	db.Log().Append(ckptID, encodeRedo(redoCkptRow, tab.Space(), 1, row("v1")))
	db.Log().Commit(ckptID)
	db.Crash()

	db2 := Open(fastCfg())
	defer db2.Close()
	tab2, _ := db2.CreateTable("t")
	if err := db2.Recover(db.Log().RecoveredEntries()); err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != 4 {
		t.Fatalf("recovered %d rows, want 4 (must fall back to the complete checkpoint)", tab2.Len())
	}
}

// flakyDev wraps any Device and fails WriteData/Sync on demand —
// exercising the error paths the Device interface makes injectable.
type flakyDev struct {
	disk.Device
	fail atomic.Bool
}

func (d *flakyDev) WriteData(p []byte) error {
	if d.fail.Load() {
		return disk.ErrIO
	}
	return d.Device.WriteData(p)
}

func (d *flakyDev) Sync() error {
	if d.fail.Load() {
		return disk.ErrIO
	}
	return d.Device.Sync()
}

// TestCheckpointPropagatesFlushError pins the regression where
// Checkpoint ignored the post-commit Flush error: if the device refuses
// the flush, Checkpoint must fail and must NOT truncate the log, and a
// retry once the device heals must succeed with nothing lost.
func TestCheckpointPropagatesFlushError(t *testing.T) {
	inner, err := disk.OpenFile(disk.FileConfig{
		Path:      filepath.Join(t.TempDir(), "log0.wal"),
		BlockSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := &flakyDev{Device: inner}
	t.Cleanup(func() { inner.Close() })

	cfg := fastCfg()
	cfg.LogDevices = []disk.Device{dev}
	cfg.FlushPolicy = wal.LazyWrite
	cfg.LogFlushInterval = time.Hour // only explicit flushes touch the device
	db := Open(cfg)
	defer db.Close()
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	for i := uint64(1); i <= 8; i++ {
		tx := s.Begin()
		tx.Insert(tab, i, row(fmt.Sprintf("v%d", i)))
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	if err := db.Log().Flush(); err != nil { // workload durable; only the checkpoint's flush can fail below
		t.Fatal(err)
	}
	firstLSN := db.Log().RecoveredEntries()[0].LSN
	dev.fail.Store(true)
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint swallowed the flush error")
	}
	entries := db.Log().RecoveredEntries()
	if len(entries) == 0 || entries[0].LSN != firstLSN {
		t.Fatal("failed checkpoint truncated the log")
	}

	dev.fail.Store(false)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("retry after device healed: %v", err)
	}
	db.Crash()
	db2 := Open(fastCfg())
	defer db2.Close()
	tab2, _ := db2.CreateTable("t")
	if err := db2.Recover(wal.RecoverDeviceEntries(dev)); err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != 8 {
		t.Fatalf("recovered %d rows, want 8", tab2.Len())
	}
}

// TestOnlineCheckpointConcurrentWriters runs checkpoints continuously
// while writers commit — the online-checkpoint contract: no
// ErrNotQuiescent, no lost commits, recovery sees every acked write.
func TestOnlineCheckpointConcurrentWriters(t *testing.T) {
	db := Open(fastCfg())
	tab, _ := db.CreateTable("t")

	const workers, perWorker = 4, 40
	acked := make([]map[uint64]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[uint64]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWorker; i++ {
				key := uint64(w*1000 + i + 1)
				val := fmt.Sprintf("w%d-%d", w, i)
				tx := s.Begin()
				if err := tx.Insert(tab, key, row(val)); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					acked[w][key] = val
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var ckpts int
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		var err error
		if ckpts%2 == 1 {
			_, err = db.CheckpointIncremental()
		} else {
			_, err = db.Checkpoint()
		}
		if err != nil {
			t.Fatalf("checkpoint %d with live writers: %v", ckpts, err)
		}
		ckpts++
	}
	if ckpts == 0 {
		t.Fatal("no checkpoint overlapped the writers")
	}
	db.Crash()

	db2 := Open(fastCfg())
	defer db2.Close()
	tab2, _ := db2.CreateTable("t")
	if err := db2.Recover(db.Log().RecoveredEntries()); err != nil {
		t.Fatal(err)
	}
	if err := db2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s2 := db2.NewSession()
	tx2 := s2.Begin()
	defer tx2.Rollback()
	for w := range acked {
		for key, want := range acked[w] {
			img, err := tx2.Get(tab2, key)
			if err != nil {
				t.Fatalf("acked key %d lost: %v", key, err)
			}
			if got := rowStr(t, img); got != want {
				t.Fatalf("key %d = %q, want %q", key, got, want)
			}
		}
	}
}

// TestIncrementalCheckpointRefs checks the incremental path: a table
// untouched since the last checkpoint is re-emitted as one ckptRef
// record instead of a row-by-row rescan, and recovery resolves the ref
// back to the base checkpoint's rows.
func TestIncrementalCheckpointRefs(t *testing.T) {
	db := Open(fastCfg())
	a, _ := db.CreateTable("a")
	b, _ := db.CreateTable("b")
	s := db.NewSession()
	put := func(tab *storage.Table, key uint64, val string) {
		tx := s.Begin()
		if err := tx.Insert(tab, key, row(val)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		put(a, i, fmt.Sprintf("a%d", i))
		put(b, i, fmt.Sprintf("b%d", i))
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(a, 10, "a10") // dirty table a only
	if _, err := db.CheckpointIncremental(); err != nil {
		t.Fatal(err)
	}

	var refs, rowsA, rowsB int
	for _, e := range db.Log().RecoveredEntries() {
		op, space, _, _, err := DecodeRedo(e.Payload)
		if err != nil {
			continue
		}
		switch {
		case op == RedoCkptRef:
			refs++
			if space != b.Space() {
				t.Fatalf("ref emitted for space %d, want clean table b (%d)", space, b.Space())
			}
		case op == RedoCkptRow && space == a.Space():
			rowsA++
		case op == RedoCkptRow && space == b.Space():
			rowsB++
		}
	}
	if refs != 1 {
		t.Fatalf("ckptRef records = %d, want 1", refs)
	}
	if rowsA < 4 {
		t.Fatalf("dirty table a re-emitted %d rows, want 4", rowsA)
	}
	if rowsB != 3 {
		t.Fatalf("table b rows in log = %d, want 3 (the base checkpoint's)", rowsB)
	}

	db.Crash()
	db2 := Open(fastCfg())
	defer db2.Close()
	a2, _ := db2.CreateTable("a")
	b2, _ := db2.CreateTable("b")
	if err := db2.Recover(db.Log().RecoveredEntries()); err != nil {
		t.Fatal(err)
	}
	if a2.Len() != 4 || b2.Len() != 3 {
		t.Fatalf("recovered a=%d b=%d rows, want 4 and 3", a2.Len(), b2.Len())
	}
}
