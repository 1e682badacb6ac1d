package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vats/internal/disk"
)

// TestFlusherStress runs the whole protocol at once under the race
// detector: 64 eager committers over two parallel streams whose devices
// share one fault plan with transient I/O errors, a checkpointer doing
// Append/Release/Flush, and a truncator — ended by a crash at a seeded
// device operation, or by a clean Close. Every call must return; every
// acked commit must be in the devices' durable images; the bookkeeping
// invariants must hold during and after; and the manager's flusher
// goroutines must be gone when Crash/Close returns.
func TestFlusherStress(t *testing.T) {
	const seed = 20260808
	for _, tc := range []struct {
		name    string
		crashOp int64 // device operation the machine dies at; 0: run to completion and Close
		txns    int   // per committer
	}{
		{"Crash", 500 + seed%300, 1 << 30},
		{"Close", 0, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			plan := disk.NewPlan(seed, disk.FaultConfig{IOErrorP: 0.05, CrashOp: tc.crashOp, CrashTorn: -1})
			devs := make([]disk.Device, 2)
			for i := range devs {
				devs[i] = disk.New(disk.Config{
					MedianLatency: time.Microsecond,
					BlockSize:     4096,
					Seed:          int64(i + 1),
					Faults:        plan, // one machine: both devices die together
				})
			}
			m := New(Config{Devices: devs, Policy: EagerFlush})

			// fine reports whether a call succeeded. Its only acceptable
			// failure is ErrCrashed once the machine is due to die.
			fine := func(what string, err error) bool {
				if err != nil && !(tc.crashOp > 0 && errors.Is(err, ErrCrashed)) {
					t.Errorf("%s: %v", what, err)
				}
				return err == nil
			}
			stop := make(chan struct{})
			running := func() bool {
				select {
				case <-stop:
					return false
				default:
					return true
				}
			}
			var aux sync.WaitGroup
			aux.Add(2)
			go func() { // the checkpoint pattern
				defer aux.Done()
				const ckptID = 1 << 40
				for running() {
					for i := 0; i < 8; i++ {
						if _, err := m.Append(ckptID, []byte("ckpt-row")); !fine("checkpoint Append", err) {
							return
						}
					}
					if !fine("Release", m.Release(ckptID)) || !fine("Flush", m.Flush()) {
						return
					}
				}
			}()
			go func() { // the truncator, auditing as it goes
				defer aux.Done()
				for running() {
					if !fine("Truncate", m.Truncate(m.DurableWatermark()/2)) {
						return
					}
					if err := m.CheckInvariants(); err != nil {
						t.Errorf("invariants mid-run: %v", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()

			const committers = 64
			acked := make([][]uint64, committers)
			var wg sync.WaitGroup
			for w := 0; w < committers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < tc.txns; i++ {
						txn := uint64(w)<<20 | uint64(i+1)
						payloads := [][]byte{[]byte(fmt.Sprintf("t%d", txn)), []byte("commit")}
						_, err := m.AppendBatch(txn, payloads)
						if err == nil {
							err = m.Commit(txn)
						}
						if err != nil {
							fine(fmt.Sprintf("committer %d txn %d", w, i), err)
							return
						}
						acked[w] = append(acked[w], txn)
					}
				}(w)
			}
			wg.Wait() // every Commit returned
			close(stop)
			aux.Wait()
			if tc.crashOp > 0 {
				if !m.Crashed() {
					t.Fatal("committers stopped but the manager never saw the device crash")
				}
				m.Crash()
			} else {
				m.Close()
			}

			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("invariants after shutdown: %v", err)
			}
			onDevice := make(map[uint64]int)
			for _, e := range RecoverDeviceEntries(devs...) {
				onDevice[e.Txn]++
			}
			n := 0
			for _, txns := range acked {
				for _, txn := range txns {
					n++
					if onDevice[txn] != 2 {
						t.Fatalf("acked txn %#x has %d of 2 records in the durable images", txn, onDevice[txn])
					}
				}
			}
			if n == 0 {
				t.Fatal("nothing was acked")
			}
			t.Logf("%d commits acked, %d device ops, %d flushes", n, plan.Ops(), m.Stats().Flushes)

			// Crash/Close join the flushers, but a joined goroutine is only
			// gone once the scheduler has retired it.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after shutdown, %d before New: a flusher leaked", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
