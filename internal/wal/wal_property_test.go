package wal

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"vats/internal/disk"
)

// Property: LSNs are dense and strictly increasing, and recovery
// returns durable records in LSN order regardless of commit
// interleaving.
func TestLSNOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := New(Config{Devices: []disk.Device{fastDevice(seed)}, Policy: EagerFlush})
		defer m.Close()
		n := 5 + int(uint64(seed)%20)
		var want []LSN
		for i := 0; i < n; i++ {
			lsn, err := m.Append(uint64(i%3+1), []byte{byte(i)})
			if err != nil {
				return false
			}
			want = append(want, lsn)
		}
		for i := 1; i < len(want); i++ {
			if want[i] != want[i-1]+1 {
				return false
			}
		}
		for txn := uint64(1); txn <= 3; txn++ {
			if err := m.Commit(txn); err != nil {
				return false
			}
		}
		entries := m.RecoveredEntries()
		if len(entries) != n {
			return false
		}
		for i := 1; i < len(entries); i++ {
			if entries[i].LSN <= entries[i-1].LSN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: under any crash point, the recovered set of an eager-flush
// log contains every record of every Commit that returned.
func TestEagerDurabilityUnderConcurrentCrash(t *testing.T) {
	m := New(Config{Devices: []disk.Device{fastDevice(3)}, Policy: EagerFlush})
	var mu sync.Mutex
	committed := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		base := uint64(w * 100)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= 10; i++ {
				txn := base + i
				if _, err := m.Append(txn, []byte(fmt.Sprintf("t%d", txn))); err != nil {
					return // crashed
				}
				if err := m.Commit(txn); err != nil {
					return // crashed
				}
				mu.Lock()
				committed[txn] = true
				mu.Unlock()
			}
		}()
	}
	time.Sleep(3 * time.Millisecond)
	m.Crash() // concurrent with commits
	wg.Wait()

	recovered := map[uint64]bool{}
	for _, e := range m.RecoveredEntries() {
		recovered[e.Txn] = true
	}
	mu.Lock()
	defer mu.Unlock()
	for txn := range committed {
		if !recovered[txn] {
			t.Fatalf("txn %d committed before the crash but was not recovered", txn)
		}
	}
}

func TestGroupCommitCountsGrouped(t *testing.T) {
	dev := disk.New(disk.Config{MedianLatency: 3 * time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: 9})
	m := New(Config{Devices: []disk.Device{dev}, Policy: EagerFlush})
	defer m.Close()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		txn := uint64(i + 1)
		go func() {
			defer wg.Done()
			m.Append(txn, []byte("x"))
			m.Commit(txn)
		}()
	}
	wg.Wait()
	if m.Stats().GroupedCommits == 0 {
		t.Error("no commits were satisfied by group commit under a slow device")
	}
}

func TestLazyFlushCrashLosesOnlyUnflushedTail(t *testing.T) {
	m := New(Config{
		Devices:       []disk.Device{fastDevice(5)},
		Policy:        LazyFlush,
		FlushInterval: 2 * time.Millisecond,
	})
	// First batch: commit and wait until durable.
	m.Append(1, []byte("old"))
	m.Commit(1)
	deadline := time.Now().Add(time.Second)
	for m.DurableCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("first record never durable")
		}
		time.Sleep(time.Millisecond)
	}
	// Second batch committed but crash races the flusher.
	m.Append(2, []byte("new"))
	m.Commit(2)
	m.Crash()
	rec := m.Recovered()
	if len(rec) < 1 || string(rec[0]) != "old" {
		t.Fatalf("durable prefix lost: %q", rec)
	}
}

func TestFlushIdempotentAfterCrash(t *testing.T) {
	m := New(Config{Devices: []disk.Device{fastDevice(6)}, Policy: LazyWrite, FlushInterval: time.Hour})
	m.Append(1, []byte("x"))
	m.Commit(1)
	m.Crash()
	m.Flush() // must be a no-op, not resurrect records
	if m.DurableCount() != 0 {
		t.Fatal("flush after crash resurrected records")
	}
}

func TestParallelMoreStreamsMoreThroughput(t *testing.T) {
	run := func(devices int) time.Duration {
		var devs []disk.Device
		for i := 0; i < devices; i++ {
			devs = append(devs, disk.New(disk.Config{
				MedianLatency: time.Millisecond, Sigma: 0, BlockSize: 4096, Seed: int64(i + 1)}))
		}
		m := New(Config{Devices: devs, Policy: EagerFlush})
		defer m.Close()
		start := time.Now()
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			txn := uint64(i + 1)
			go func() {
				defer wg.Done()
				m.Append(txn, []byte("r"))
				m.Commit(txn)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	single := run(1)
	dual := run(2)
	// Group commit makes both fast, but two streams must not be
	// dramatically slower; typically they are faster.
	if dual > 2*single+2*time.Millisecond {
		t.Errorf("parallel logging slower: single=%v dual=%v", single, dual)
	}
}
