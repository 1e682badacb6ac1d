package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vats/internal/disk"
)

// TestAppendBatchCrashAtomicity crashes the log while many transactions
// are committing multi-record batches and verifies the batch is the unit
// of durability: after recovery every transaction's records are either
// all present or all absent — a crash can never split a batch.
func TestAppendBatchCrashAtomicity(t *testing.T) {
	const (
		workers = 8
		perTxn  = 4
	)
	m := New(Config{Devices: []disk.Device{fastDevice(1)}, Policy: EagerFlush})
	var nextTxn atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				txn := nextTxn.Add(1)
				payloads := make([][]byte, perTxn)
				for i := range payloads {
					payloads[i] = []byte(fmt.Sprintf("t%d-r%d", txn, i))
				}
				if _, err := m.AppendBatch(txn, payloads); err != nil {
					if errors.Is(err, ErrCrashed) {
						return
					}
					t.Errorf("append: %v", err)
					return
				}
				if err := m.Commit(txn); err != nil && !errors.Is(err, ErrCrashed) {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	m.Crash()
	close(stop)
	wg.Wait()

	counts := make(map[uint64]int)
	for _, e := range m.RecoveredEntries() {
		counts[e.Txn]++
	}
	if len(counts) == 0 {
		t.Fatal("nothing recovered; crash happened before any commit")
	}
	for txn, n := range counts {
		if n != perTxn {
			t.Errorf("txn %d recovered %d of %d records: batch split by crash", txn, n, perTxn)
		}
	}
}

// TestWatermarkMonotonic hammers a two-stream parallel log with
// concurrent committers while a monitor polls the durable watermark,
// checking it never moves backwards and never overtakes the allocated
// LSN space. At quiesce the watermark must cover every record exactly.
func TestWatermarkMonotonic(t *testing.T) {
	const (
		workers = 8
		txns    = 40
		perTxn  = 3
	)
	m := New(Config{
		Devices: []disk.Device{fastDevice(1), fastDevice(2)},
		Policy:  EagerFlush,
	})
	defer m.Close()

	var appended atomic.Uint64 // highest LSN allocated so far
	stopMon := make(chan struct{})
	done := make(chan struct{})
	var monErr error
	go func() {
		defer close(done)
		var prev LSN
		for {
			wm := m.DurableWatermark()
			if wm < prev {
				monErr = fmt.Errorf("watermark went backwards: %d after %d", wm, prev)
				return
			}
			if hi := LSN(appended.Load()); wm > hi && hi > 0 {
				monErr = fmt.Errorf("watermark %d ahead of highest allocated LSN %d", wm, hi)
				return
			}
			prev = wm
			select {
			case <-stopMon:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	var nextTxn atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				txn := nextTxn.Add(1)
				payloads := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
				lsn, err := m.AppendBatch(txn, payloads)
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				for {
					hi := appended.Load()
					want := uint64(lsn) + perTxn - 1
					if hi >= want || appended.CompareAndSwap(hi, want) {
						break
					}
				}
				if err := m.Commit(txn); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopMon)
	<-done
	if monErr != nil {
		t.Fatal(monErr)
	}

	total := LSN(workers * txns * perTxn)
	if wm := m.DurableWatermark(); wm != total {
		t.Errorf("final watermark %d, want %d (all commits returned)", wm, total)
	}
	var hi LSN
	for _, sm := range m.StreamWatermarks() {
		if sm > hi {
			hi = sm
		}
	}
	if hi != total {
		t.Errorf("max stream watermark %d, want %d", hi, total)
	}
}
