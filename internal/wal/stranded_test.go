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

// flakyDev wraps a log device with injectable transient errors.
type flakyDev struct {
	disk.Device
	failWrites atomic.Int32 // fail this many WriteData calls
	failSyncs  atomic.Int32 // fail this many Sync calls
}

var errInjected = errors.New("injected transient I/O error")

func (d *flakyDev) WriteData(p []byte) error {
	if d.failWrites.Add(-1) >= 0 {
		return errInjected
	}
	return d.Device.WriteData(p)
}

func (d *flakyDev) Sync() error {
	if d.failSyncs.Add(-1) >= 0 {
		return errInjected
	}
	return d.Device.Sync()
}

// The stranding tests drive the log only through its public API and the
// device's injected errors. They pin the flusher's contract: a batch it
// has taken stays with it through any number of transient errors, so
// whoever waits on that batch — by transaction or through a Flush
// barrier — is woken with it durable. A flusher that dropped a batch
// after an error would leave the waiter asleep; every wait below is
// bounded by strandedTimeout, so that bug is a test failure, not a hang.
const strandedTimeout = 10 * time.Second

var allPolicies = []FlushPolicy{EagerFlush, LazyFlush, LazyWrite}

// within runs f and reports how it ended: an error from f, or stranded
// when it has not returned after strandedTimeout.
func within(what string, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s = %v, want nil", what, err)
		}
		return nil
	case <-time.After(strandedTimeout):
		return fmt.Errorf("%s stranded: its batch was dropped after a transient device error", what)
	}
}

// wantDurable asserts that exactly txns 1..n are durable, both in the
// manager's bookkeeping and in the device image recovery would read.
func wantDurable(t *testing.T, m *Manager, dev disk.Device, n int) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := m.DurableCount(); got != n {
		t.Fatalf("DurableCount = %d, want %d", got, n)
	}
	seen := make(map[uint64]bool)
	for _, e := range RecoverDeviceEntries(dev) {
		seen[e.Txn] = true
	}
	for txn := uint64(1); txn <= uint64(n); txn++ {
		if !seen[txn] {
			t.Fatalf("txn %d acked durable but missing from the device image", txn)
		}
	}
}

// TestWriteErrorUnderFlushBarrier is the torture campaign's hang: a
// committer's batch is swept up by a concurrent Flush (a checkpoint's
// durability barrier) and the device write then fails. Commit and the
// barrier must both return, with the record durable.
func TestWriteErrorUnderFlushBarrier(t *testing.T) {
	for _, policy := range allPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			fd := &flakyDev{Device: fastDevice(1)}
			m := New(Config{Devices: []disk.Device{fd}, Policy: policy, FlushInterval: time.Millisecond})
			defer m.Close()
			if _, err := m.Append(1, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			fd.failWrites.Store(3)
			flushed := make(chan error, 1)
			go func() { flushed <- within("Flush", m.Flush) }()
			if err := within("Commit", func() error { return m.Commit(1) }); err != nil {
				t.Fatal(err)
			}
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			wantDurable(t, m, fd, 1)
		})
	}
}

// TestSyncErrorLeavesNothingStranded covers the second stranding shape:
// the batch is written but its fsync fails, and nobody nudges the log
// afterwards. The flusher must retry the fsync on its own: an eager
// Commit returns durable, a lazy one becomes durable within a few
// intervals.
func TestSyncErrorLeavesNothingStranded(t *testing.T) {
	for _, policy := range allPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			fd := &flakyDev{Device: fastDevice(2)}
			m := New(Config{Devices: []disk.Device{fd}, Policy: policy, FlushInterval: time.Millisecond})
			defer m.Close()
			if _, err := m.Append(1, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			fd.failSyncs.Store(3)
			if err := within("Commit", func() error { return m.Commit(1) }); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(strandedTimeout); m.DurableCount() != 1; {
				if policy == EagerFlush {
					t.Fatal("eager Commit returned before its record was durable")
				}
				if time.Now().After(deadline) {
					t.Fatal("written batch stranded: never fsynced after a failed Sync")
				}
				time.Sleep(time.Millisecond)
			}
			wantDurable(t, m, fd, 1)
		})
	}
}

// TestCommitSyncRacesIntervalFlush forces durability under the lazy
// policies while the interval flush keeps taking the same batches and
// the device keeps failing: whichever pass holds a batch when an error
// hits, every CommitSync must return with its record durable.
func TestCommitSyncRacesIntervalFlush(t *testing.T) {
	for _, policy := range []FlushPolicy{LazyFlush, LazyWrite} {
		t.Run(policy.String(), func(t *testing.T) {
			fd := &flakyDev{Device: fastDevice(3)}
			m := New(Config{Devices: []disk.Device{fd}, Policy: policy, FlushInterval: 50 * time.Microsecond})
			defer m.Close()
			const workers, per = 4, 50
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						txn := uint64(w*per + i + 1)
						if _, err := m.Append(txn, []byte(fmt.Sprintf("t%d", txn))); err != nil {
							t.Errorf("append %d: %v", txn, err)
							return
						}
						if i%2 == 0 {
							fd.failWrites.Store(1)
						} else {
							fd.failSyncs.Store(2)
						}
						if err := within(fmt.Sprintf("CommitSync(%d)", txn), func() error { return m.CommitSync(txn) }); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			wantDurable(t, m, fd, workers*per)
		})
	}
}
