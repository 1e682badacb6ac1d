package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/storage"
	"vats/internal/wal"
)

// TestRecoveryMatrix drives the full crash-timing grid through real
// device byte images:
//
//	{clean shutdown, crash pre-flush, crash mid-batch,
//	 crash post-flush pre-ack} × {single, parallel} × {±checkpoint}
//
// Each cell runs a deterministic sequential workload (phase A: ten
// committed inserts made durable, optionally checkpointed) and then one
// more transaction (key 99) whose fate depends on the crash timing:
//
//   - clean: the engine closes; key 99 must survive.
//   - pre-flush: LazyWrite with the flusher parked; key 99 is acked but
//     still buffered when the machine dies — legally lost.
//   - mid-batch: the crash fires during key 99's commit fsync and tears
//     the frame in half; the torn frame must be dropped whole.
//   - post-flush pre-ack: the crash fires during the same fsync but the
//     full frame reaches the platter; the commit is never acked yet
//     recovery must surface it (unacked-but-durable is legal).
//
// Crash points are calibrated by a probe run: the workload is replayed
// without faults to count device ops, then replayed with CrashOp set to
// the B-transaction's fsync. Determinism of that op count is itself
// part of what the test asserts.
func TestRecoveryMatrix(t *testing.T) {
	modes := []struct {
		name        string
		policy      wal.FlushPolicy
		crashAtSync bool    // target key 99's commit fsync via probe
		torn        float64 // fraction of pending bytes that persist at the crash
		wantB       bool    // key 99 present after recovery
		clean       bool    // Close instead of Crash
		wantErr     bool    // key 99's Commit must fail
	}{
		{name: "clean", policy: wal.LazyWrite, wantB: true, clean: true},
		{name: "crash-preflush", policy: wal.LazyWrite, wantB: false},
		{name: "crash-midbatch", policy: wal.EagerFlush, crashAtSync: true, torn: 0.5, wantB: false, wantErr: true},
		{name: "crash-postflush-preack", policy: wal.EagerFlush, crashAtSync: true, torn: 1.0, wantB: true, wantErr: true},
	}
	for _, backend := range []string{"sim", "file"} {
		for _, parallel := range []bool{false, true} {
			for _, ckpt := range []bool{false, true} {
				for _, m := range modes {
					name := fmt.Sprintf("%s/%s/parallel=%v/ckpt=%v", backend, m.name, parallel, ckpt)
					t.Run(name, func(t *testing.T) {
						var crashOp int64
						if m.crashAtSync {
							// Probe: same workload, no faults; phase A plus
							// key 99's WriteData consume ops 1..a+1, so the
							// fsync is op a+2. The op schedule is backend-
							// independent (only WriteData/Sync are
							// adjudicated), so the sim probe calibrates the
							// file rounds too — but probing on the same
							// backend keeps the test honest about that claim.
							probe := disk.NewPlan(11, disk.FaultConfig{})
							db, _ := matrixOpen(t, backend, parallel, m.policy, probe)
							matrixPhaseA(t, db, ckpt)
							crashOp = probe.Ops() + 2
							db.Crash()
						}
						plan := disk.NewPlan(11, disk.FaultConfig{CrashOp: crashOp, CrashTorn: m.torn})
						db, devs := matrixOpen(t, backend, parallel, m.policy, plan)
						tab := matrixPhaseA(t, db, ckpt)

						s := db.NewSession()
						tx := s.Begin()
						if err := tx.Insert(tab, 99, row("vB")); err != nil {
							t.Fatal(err)
						}
						err := tx.Commit()
						if m.wantErr && !errors.Is(err, wal.ErrCrashed) {
							t.Fatalf("commit err = %v, want ErrCrashed", err)
						}
						if !m.wantErr && err != nil {
							t.Fatalf("commit err = %v", err)
						}
						if m.clean {
							db.Close()
						} else {
							db.Crash()
						}
						if err := db.CheckInvariants(); err != nil {
							t.Fatalf("source engine: %v", err)
						}

						db2 := Open(fastCfg())
						defer db2.Close()
						tab2, _ := db2.CreateTable("t")
						if err := db2.Recover(wal.RecoverDeviceEntries(devs...)); err != nil {
							t.Fatalf("recover: %v", err)
						}
						if err := db2.CheckInvariants(); err != nil {
							t.Fatalf("recovered engine: %v", err)
						}
						s2 := db2.NewSession()
						tx2 := s2.Begin()
						defer tx2.Rollback()
						for i := uint64(1); i <= 10; i++ {
							img, err := tx2.Get(tab2, i)
							if err != nil {
								t.Fatalf("key %d: %v", i, err)
							}
							if got, want := rowStr(t, img), fmt.Sprintf("v%d", i); got != want {
								t.Fatalf("key %d = %q, want %q", i, got, want)
							}
						}
						_, err = tx2.Get(tab2, 99)
						switch {
						case m.wantB && err != nil:
							t.Fatalf("key 99 lost: %v", err)
						case !m.wantB && !errors.Is(err, storage.ErrKeyNotFound):
							t.Fatalf("key 99: err = %v, want ErrKeyNotFound", err)
						}
					})
				}
			}
		}
	}
}

// matrixOpen builds an engine whose log devices share one fault plan,
// on either the simulated or the real-file backend. The background
// flusher is parked (1h interval) so every flush in the workload is
// explicit and the device-op schedule is deterministic.
func matrixOpen(t *testing.T, backend string, parallel bool, policy wal.FlushPolicy, plan *disk.Plan) (*DB, []disk.Device) {
	t.Helper()
	n := 1
	if parallel {
		n = 2
	}
	devs := make([]disk.Device, n)
	for i := range devs {
		if backend == "file" {
			fd, err := disk.OpenFile(disk.FileConfig{
				Path:      filepath.Join(t.TempDir(), fmt.Sprintf("log%d.wal", i)),
				Name:      fmt.Sprintf("log%d", i),
				BlockSize: 4096,
				Faults:    plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fd.Close() })
			devs[i] = fd
		} else {
			devs[i] = disk.New(disk.Config{
				Name:          fmt.Sprintf("log%d", i),
				MedianLatency: 5 * time.Microsecond,
				BlockSize:     4096,
				Seed:          int64(20 + i),
				Faults:        plan,
			})
		}
	}
	cfg := fastCfg()
	cfg.LogDevices = devs
	cfg.FlushPolicy = policy
	cfg.LogFlushInterval = time.Hour
	return Open(cfg), devs
}

// matrixPhaseA commits keys 1..10, forces them durable, and optionally
// checkpoints. Sequential and single-threaded so the device-op count is
// a pure function of the configuration.
func matrixPhaseA(t *testing.T, db *DB, ckpt bool) *storage.Table {
	t.Helper()
	tab, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	for i := uint64(1); i <= 10; i++ {
		tx := s.Begin()
		if err := tx.Insert(tab, i, row(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	db.Log().Flush() // LazyWrite/LazyFlush: push phase A to the device now
	if ckpt {
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}
