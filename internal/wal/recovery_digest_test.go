package wal_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/wal"
)

// TestRecoveryDigest pins what recovery sees on plain simulated devices:
// one committer appends seeded batches, and every 50th batch the test
// flushes, truncates at a seeded bound and folds the recovered entries
// and the durable counters into an FNV-64 hash. The digests were
// recorded before the log had a single on-device mode and must not
// change with how the WAL stores durable batches.
func TestRecoveryDigest(t *testing.T) {
	want := map[string]uint64{
		"EagerFlush/1": 0x89ce8a269cc6ae1a,
		"EagerFlush/2": 0x89ce8a269cc6ae1a,
		"LazyFlush/1":  0x89ce8a269cc6ae1a,
		"LazyFlush/2":  0x89ce8a269cc6ae1a,
		"LazyWrite/1":  0x89ce8a269cc6ae1a,
		"LazyWrite/2":  0x89ce8a269cc6ae1a,
	}
	for _, pol := range []wal.FlushPolicy{wal.EagerFlush, wal.LazyFlush, wal.LazyWrite} {
		for _, ndev := range []int{1, 2} {
			name := fmt.Sprintf("%s/%d", pol, ndev)
			t.Run(name, func(t *testing.T) {
				if got := recoveryDigest(t, pol, ndev); got != want[name] {
					t.Errorf("digest = %#x, want %#x", got, want[name])
				}
			})
		}
	}
}

func recoveryDigest(t *testing.T, pol wal.FlushPolicy, ndev int) uint64 {
	devs := make([]disk.Device, ndev)
	for i := range devs {
		devs[i] = disk.New(disk.Config{
			MedianLatency: time.Microsecond,
			BlockSize:     4096,
			PreciseWait:   true,
			Seed:          int64(i + 1),
		})
	}
	m := wal.New(wal.Config{Devices: devs, Policy: pol, FlushInterval: time.Millisecond})
	defer m.Close()
	r := rand.New(rand.NewSource(20260808))
	h := fnv.New64a()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	digest := func() {
		for _, e := range m.RecoveredEntries() {
			fold(uint64(e.LSN))
			fold(e.Txn)
			fold(uint64(len(e.Payload)))
			h.Write(e.Payload)
		}
		fold(uint64(m.DurableCount()))
		fold(uint64(m.DurableWatermark()))
	}
	for i := 1; i <= 300; i++ {
		recs := make([][]byte, 1+r.Intn(4))
		for k := range recs {
			recs[k] = make([]byte, 1+r.Intn(64))
			r.Read(recs[k])
		}
		txn := uint64(i)
		if _, err := m.AppendBatch(txn, recs); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(txn); err != nil {
			t.Fatal(err)
		}
		if i%50 != 0 {
			continue
		}
		if err := m.Flush(); err != nil {
			t.Fatal(err)
		}
		digest()
		bound := wal.LSN(1 + r.Intn(int(m.DurableWatermark())+20))
		if err := m.Truncate(bound); err != nil {
			t.Fatal(err)
		}
		fold(uint64(bound))
		digest()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}
