package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vats/internal/disk"
)

func fastDevice(seed int64) disk.Device {
	return disk.New(disk.Config{
		MedianLatency: 30 * time.Microsecond,
		Sigma:         0.1,
		BlockSize:     4096,
		Seed:          seed,
	})
}

func eagerMgr() *Manager {
	return New(Config{Devices: []disk.Device{fastDevice(1)}, Policy: EagerFlush})
}

func TestPolicyStrings(t *testing.T) {
	if EagerFlush.String() != "EagerFlush" || LazyFlush.String() != "LazyFlush" || LazyWrite.String() != "LazyWrite" {
		t.Error("policy strings")
	}
}

func TestNewPanicsWithoutDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func TestAppendAssignsIncreasingLSNs(t *testing.T) {
	m := eagerMgr()
	defer m.Close()
	var prev LSN
	for i := 0; i < 10; i++ {
		lsn, err := m.Append(1, []byte("rec"))
		if err != nil {
			t.Fatal(err)
		}
		if lsn <= prev {
			t.Fatalf("LSN not increasing: %d after %d", lsn, prev)
		}
		prev = lsn
	}
	if m.Stats().Appends != 10 {
		t.Errorf("appends = %d", m.Stats().Appends)
	}
}

func TestAppendCopiesPayload(t *testing.T) {
	m := eagerMgr()
	defer m.Close()
	buf := []byte("hello")
	m.Append(1, buf)
	buf[0] = 'X'
	m.Commit(1)
	rec := m.Recovered()
	if string(rec[0]) != "hello" {
		t.Fatalf("payload aliased caller buffer: %q", rec[0])
	}
}

func TestEagerCommitIsDurable(t *testing.T) {
	m := eagerMgr()
	m.Append(1, []byte("a"))
	m.Append(1, []byte("b"))
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	if got := m.DurableCount(); got != 2 {
		t.Fatalf("durable = %d, want 2", got)
	}
	m.Crash()
	rec := m.Recovered()
	if len(rec) != 2 || string(rec[0]) != "a" || string(rec[1]) != "b" {
		t.Fatalf("recovered %d records after crash, want both", len(rec))
	}
}

func TestEagerCommitNoRecordsIsNoop(t *testing.T) {
	m := eagerMgr()
	defer m.Close()
	if err := m.Commit(42); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Flushes != 0 {
		t.Error("empty commit should not flush")
	}
}

func TestGroupCommitPiggybacks(t *testing.T) {
	// Many concurrent eager committers on one slow device: flush count
	// must be (much) smaller than committer count thanks to group commit.
	dev := disk.New(disk.Config{MedianLatency: 2 * time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 1})
	m := New(Config{Devices: []disk.Device{dev}, Policy: EagerFlush})
	defer m.Close()
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		txn := uint64(i + 1)
		go func() {
			defer wg.Done()
			m.Append(txn, []byte(fmt.Sprintf("txn-%d", txn)))
			if err := m.Commit(txn); err != nil {
				t.Errorf("commit %d: %v", txn, err)
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.Flushes >= n {
		t.Errorf("flushes = %d for %d committers; group commit absent", st.Flushes, n)
	}
	if m.DurableCount() != n {
		t.Errorf("durable = %d, want %d", m.DurableCount(), n)
	}
}

func TestLazyFlushDurableAfterInterval(t *testing.T) {
	m := New(Config{
		Devices:       []disk.Device{fastDevice(2)},
		Policy:        LazyFlush,
		FlushInterval: 2 * time.Millisecond,
	})
	m.Append(1, []byte("x"))
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Written but possibly not yet durable; after a few intervals the
	// flusher must have fsynced it.
	deadline := time.Now().Add(time.Second)
	for m.DurableCount() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("lazy flush never made the record durable")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()
}

func TestLazyWriteCommitReturnsImmediately(t *testing.T) {
	dev := disk.New(disk.Config{MedianLatency: 5 * time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 3})
	m := New(Config{Devices: []disk.Device{dev}, Policy: LazyWrite, FlushInterval: 2 * time.Millisecond})
	defer m.Close()
	m.Append(1, []byte("x"))
	start := time.Now()
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 2*time.Millisecond {
		t.Errorf("LazyWrite commit took %v; should not touch the device", e)
	}
}

func TestLazyWriteCrashLosesRecentCommits(t *testing.T) {
	m := New(Config{
		Devices:       []disk.Device{fastDevice(4)},
		Policy:        LazyWrite,
		FlushInterval: time.Hour, // flusher effectively never runs
	})
	m.Append(1, []byte("lost"))
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := len(m.Recovered()); got != 0 {
		t.Fatalf("recovered %d records; LazyWrite before flush must lose them", got)
	}
}

func TestCloseFlushesLazyRecords(t *testing.T) {
	m := New(Config{
		Devices:       []disk.Device{fastDevice(5)},
		Policy:        LazyWrite,
		FlushInterval: time.Hour,
	})
	m.Append(1, []byte("kept"))
	m.Commit(1)
	m.Close() // clean shutdown flushes
	if got := len(m.Recovered()); got != 1 {
		t.Fatalf("recovered %d, want 1 after clean Close", got)
	}
}

func TestCrashFailsFurtherOperations(t *testing.T) {
	m := eagerMgr()
	m.Crash()
	if _, err := m.Append(1, []byte("x")); !errors.Is(err, ErrCrashed) {
		t.Errorf("append after crash: %v", err)
	}
	if err := m.Commit(1); !errors.Is(err, ErrCrashed) {
		t.Errorf("commit after crash: %v", err)
	}
}

func TestParallelPicksLessLoadedStream(t *testing.T) {
	d1 := disk.New(disk.Config{MedianLatency: time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 1})
	d2 := disk.New(disk.Config{MedianLatency: time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 2})
	m := New(Config{Devices: []disk.Device{d1, d2}, Policy: EagerFlush})
	defer m.Close()
	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		txn := uint64(i + 1)
		go func() {
			defer wg.Done()
			m.Append(txn, []byte("r"))
			m.Commit(txn)
		}()
	}
	wg.Wait()
	s1, s2 := d1.Stats(), d2.Stats()
	if s1.Ops == 0 || s2.Ops == 0 {
		t.Errorf("parallel logging left a device idle: %d vs %d ops", s1.Ops, s2.Ops)
	}
	if m.DurableCount() != n {
		t.Errorf("durable = %d, want %d", m.DurableCount(), n)
	}
}

func TestConcurrentAppendCommitStress(t *testing.T) {
	m := New(Config{Devices: []disk.Device{fastDevice(7)}, Policy: EagerFlush})
	defer m.Close()
	var wg sync.WaitGroup
	const workers = 8
	const per = 20
	for w := 0; w < workers; w++ {
		wg.Add(1)
		base := uint64(w * 1000)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				txn := base + uint64(i) + 1
				m.Append(txn, []byte("p1"))
				m.Append(txn, []byte("p2"))
				if err := m.Commit(txn); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if got := m.DurableCount(); got != workers*per*2 {
		t.Fatalf("durable = %d, want %d", got, workers*per*2)
	}
}

func TestTruncateDropsOnlyDurablePrefix(t *testing.T) {
	m := eagerMgr()
	defer m.Close()
	m.Append(1, []byte("a"))
	m.Append(1, []byte("b"))
	m.Commit(1) // both durable (LSN 1, 2)
	lsn3, _ := m.Append(2, []byte("c"))
	// Record 3 is buffered (not durable): Truncate must keep it even
	// though its LSN is below the cutoff.
	m.Truncate(lsn3 + 1)
	entries := m.RecoveredEntries()
	if len(entries) != 0 {
		t.Fatalf("durable entries after truncate = %d, want 0", len(entries))
	}
	if err := m.Commit(2); err != nil {
		t.Fatal(err)
	}
	entries = m.RecoveredEntries()
	if len(entries) != 1 || string(entries[0].Payload) != "c" {
		t.Fatalf("non-durable record lost by truncate: %v", entries)
	}
}

// TestTruncateInsideBatch: a bound that splits a batch leaves the
// batch's frame whole on the device, but the records below the bound are
// gone from everything the log reports.
func TestTruncateInsideBatch(t *testing.T) {
	m := eagerMgr()
	defer m.Close()
	if _, err := m.AppendBatch(1, [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(1); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		before LSN
		want   string
	}{{2, "bc"}, {1, "bc"}, {4, ""}} {
		if err := m.Truncate(tc.before); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, p := range m.Recovered() {
			got += string(p)
		}
		if got != tc.want || m.DurableCount() != len(tc.want) {
			t.Fatalf("after Truncate(%d): recovered %q, DurableCount %d; want %q", tc.before, got, m.DurableCount(), tc.want)
		}
	}
}
