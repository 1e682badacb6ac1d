package disk

import (
	"sync"
	"testing"
	"time"
)

func fastConfig() Config {
	return Config{
		Name:          "test",
		MedianLatency: 50 * time.Microsecond,
		Sigma:         0.2,
		BlockSize:     4096,
		PerByte:       time.Nanosecond,
		Seed:          1,
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := New(Config{})
	if d.Config().MedianLatency <= 0 || d.Config().BlockSize <= 0 {
		t.Fatal("defaults not applied")
	}
}

func TestWriteBytesRoundsToBlocks(t *testing.T) {
	d := New(fastConfig())
	d.WriteBytes(1) // 1 byte -> 1 block
	d.WriteBytes(4097)
	st := d.Stats()
	if st.BlocksDone != 3 {
		t.Fatalf("blocks = %d, want 3 (1 + 2)", st.BlocksDone)
	}
	if st.Ops != 3 {
		t.Fatalf("ops = %d, want 3 (one per block)", st.Ops)
	}
}

func TestWriteBytesZeroIsFree(t *testing.T) {
	d := New(fastConfig())
	if d.WriteBytes(0) != 0 {
		t.Fatal("zero-byte write should be free")
	}
	if d.Stats().Ops != 0 {
		t.Fatal("zero-byte write should not count")
	}
}

func TestFsyncTakesTime(t *testing.T) {
	d := New(fastConfig())
	dur := d.Fsync()
	if dur <= 0 {
		t.Fatal("fsync reported no elapsed time")
	}
	if d.Stats().Ops != 1 {
		t.Fatal("fsync not counted")
	}
}

func TestSerialization(t *testing.T) {
	// With k concurrent writers on one device, total elapsed must be at
	// least the sum of service times (requests serialize).
	cfg := fastConfig()
	cfg.Sigma = 0 // deterministic 50µs per op
	d := New(cfg)
	const k = 8
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Fsync()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < k*40*time.Microsecond {
		t.Errorf("elapsed %v too small for %d serialized 50µs ops", elapsed, k)
	}
	if d.Stats().MaxWaiters < 2 {
		t.Errorf("expected queueing, max waiters = %d", d.Stats().MaxWaiters)
	}
}

func TestWaitersReturnsToZero(t *testing.T) {
	d := New(fastConfig())
	d.ReadBlock()
	if w := d.Waiters(); w != 0 {
		t.Fatalf("waiters = %d after quiesce", w)
	}
}

func TestFaultStallDelaysOp(t *testing.T) {
	cfg := fastConfig()
	cfg.Sigma = 0
	// A plan whose first op always stalls (probability 1).
	cfg.Faults = NewPlan(1, FaultConfig{StallP: 1, StallDur: 5 * time.Millisecond})
	d := New(cfg)
	start := time.Now()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Errorf("stall not honoured: op took %v", e)
	}
}

func TestBlockSizeAmplification(t *testing.T) {
	// Writing a 100-byte record on a device with a huge block still pays
	// for a full block transfer: busy time grows with block size when the
	// payload is small. This is the mechanism behind fig. 4 (right).
	small := New(Config{MedianLatency: 20 * time.Microsecond, BlockSize: 1024, PerByte: 100 * time.Nanosecond, Seed: 1})
	big := New(Config{MedianLatency: 20 * time.Microsecond, BlockSize: 64 * 1024, PerByte: 100 * time.Nanosecond, Seed: 1})
	small.WriteBytes(100)
	big.WriteBytes(100)
	if small.Stats().BusyTime >= big.Stats().BusyTime {
		t.Errorf("big-block write should cost more for tiny payloads: small=%v big=%v",
			small.Stats().BusyTime, big.Stats().BusyTime)
	}
}

func TestReadAndWriteBlockCount(t *testing.T) {
	d := New(fastConfig())
	d.ReadBlock()
	d.WriteBlock()
	st := d.Stats()
	if st.Ops != 2 || st.BlocksDone != 2 {
		t.Fatalf("ops=%d blocks=%d, want 2/2", st.Ops, st.BlocksDone)
	}
}

func TestConcurrentStatsConsistency(t *testing.T) {
	d := New(fastConfig())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				d.WriteBytes(100)
			}
		}()
	}
	wg.Wait()
	if got := d.Stats().Ops; got != 20 {
		t.Fatalf("ops = %d, want 20", got)
	}
}
