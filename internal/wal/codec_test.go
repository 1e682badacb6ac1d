package wal

import (
	"bytes"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"vats/internal/disk"
)

func physDev(seed int64, cfg disk.FaultConfig) disk.Device {
	return disk.New(disk.Config{
		MedianLatency: time.Microsecond,
		BlockSize:     4096,
		Seed:          seed,
		Faults:        disk.NewPlan(seed, cfg),
	})
}

func TestFrameRoundTrip(t *testing.T) {
	bt := &batch{txn: 42, first: 7, data: []byte("aaabbcccc"), ends: []int{3, 5, 9}}
	buf := appendFrame(nil, bt)
	got, n, err := decodeFrame(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if got.txn != 42 || got.first != 7 || !bytes.Equal(got.data, bt.data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.ends) != 3 || got.ends[2] != 9 {
		t.Fatalf("ends = %v", got.ends)
	}
}

func TestDecodeImageStopsAtTornTail(t *testing.T) {
	a := appendFrame(nil, &batch{txn: 1, first: 1, data: []byte("xy"), ends: []int{2}})
	b := appendFrame(nil, &batch{txn: 2, first: 2, data: []byte("zw"), ends: []int{2}})
	img := append(append([]byte(nil), a...), b[:len(b)-3]...) // tear frame b

	entries, torn := DecodeImage(img)
	if len(entries) != 1 || entries[0].LSN != 1 {
		t.Fatalf("entries = %+v, want just LSN 1", entries)
	}
	if torn != len(b)-3 {
		t.Fatalf("torn = %d, want %d", torn, len(b)-3)
	}
}

func TestDecodeImageRejectsCorruptCRC(t *testing.T) {
	a := appendFrame(nil, &batch{txn: 1, first: 1, data: []byte("xy"), ends: []int{2}})
	a[frameHeaderSize] ^= 0xff // flip a payload bit
	entries, torn := DecodeImage(a)
	if len(entries) != 0 || torn != len(a) {
		t.Fatalf("corrupt frame decoded: %d entries, torn=%d", len(entries), torn)
	}
}

func TestMergeEntriesDedupesRewrites(t *testing.T) {
	s1 := []Entry{{LSN: 1, Txn: 1}, {LSN: 2, Txn: 1}, {LSN: 2, Txn: 1}} // rewrite dup
	s2 := []Entry{{LSN: 3, Txn: 2}}
	out := MergeEntries(s1, s2)
	if len(out) != 3 {
		t.Fatalf("merged %d entries, want 3", len(out))
	}
	for i, e := range out {
		if e.LSN != LSN(i+1) {
			t.Fatalf("entry %d has LSN %d", i, e.LSN)
		}
	}
}

// fileDev opens a real-file log device in a fresh test directory.
func fileDev(t *testing.T) disk.Device {
	t.Helper()
	d, err := disk.OpenFile(disk.FileConfig{Path: filepath.Join(t.TempDir(), "wal"), BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// TestPhysicalModeMatchesMemory checks what the log reports durable
// against an independent list of the appended records, before and after
// a Truncate whose bound splits a batch, on both device backends.
func TestPhysicalModeMatchesMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		dev  func(t *testing.T, seed int64) disk.Device
	}{
		{"Sim", func(_ *testing.T, seed int64) disk.Device { return fastDevice(seed) }},
		{"File", func(t *testing.T, _ int64) disk.Device { return fileDev(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{Devices: []disk.Device{tc.dev(t, 1), tc.dev(t, 2)}})
			defer m.Close()
			var want []Entry
			for txn := uint64(1); txn <= 20; txn++ {
				payloads := [][]byte{{byte(txn)}, {byte(txn), 2}}
				first, err := m.AppendBatch(txn, payloads)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range payloads {
					want = append(want, Entry{LSN: first + LSN(i), Txn: txn, Payload: p})
				}
				if err := m.Commit(txn); err != nil {
					t.Fatal(err)
				}
			}
			check := func(want []Entry) {
				t.Helper()
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				got := m.RecoveredEntries()
				if len(got) != len(want) || m.DurableCount() != len(want) {
					t.Fatalf("RecoveredEntries has %d entries, DurableCount %d, want %d", len(got), m.DurableCount(), len(want))
				}
				for i := range want {
					if got[i].LSN != want[i].LSN || got[i].Txn != want[i].Txn || !bytes.Equal(got[i].Payload, want[i].Payload) {
						t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
					}
				}
			}
			check(want)
			// LSN 12 is the second record of txn 6's batch.
			if err := m.Truncate(12); err != nil {
				t.Fatal(err)
			}
			check(want[11:])
		})
	}
}

// TestPhysicalModeHeapHoldsNoPayloads: on a file device every fsynced
// byte is on the file, so the manager must not keep a heap copy of it.
func TestPhysicalModeHeapHoldsNoPayloads(t *testing.T) {
	m := New(Config{Devices: []disk.Device{fileDev(t)}})
	defer m.Close()
	const n, size = 5000, 4096
	payload := make([]byte, size)
	heapInuse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	before := heapInuse()
	for txn := uint64(1); txn <= n; txn++ {
		if _, err := m.AppendBatch(txn, [][]byte{payload}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	grew := heapInuse() - before
	if appended := int64(n * size); grew >= appended/4 {
		t.Fatalf("heap grew %d KiB after %d KiB became durable on the file; want < a quarter of it", grew>>10, appended>>10)
	}
	if got := m.DurableCount(); got != n {
		t.Fatalf("DurableCount = %d, want %d", got, n)
	}
}

// TestPhysicalTransientErrorsRetry checks that commits succeed despite
// a high transient-error rate and that every record is recovered from
// the device image, in LSN order.
func TestPhysicalTransientErrorsRetry(t *testing.T) {
	dev := physDev(3, disk.FaultConfig{IOErrorP: 0.4})
	m := New(Config{Devices: []disk.Device{dev}})
	defer m.Close()
	for txn := uint64(1); txn <= 30; txn++ {
		if _, err := m.Append(txn, []byte{byte(txn)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	entries := RecoverDeviceEntries(dev)
	if len(entries) != 30 {
		t.Fatalf("recovered %d entries, want 30", len(entries))
	}
	for i, e := range entries {
		if e.LSN != LSN(i+1) {
			t.Fatalf("entry %d: LSN %d", i, e.LSN)
		}
	}
}

// TestPhysicalCrashKeepsDurablePrefix crashes the device mid-run: every
// commit that was acked before the crash must decode from the durable
// image.
func TestPhysicalCrashKeepsDurablePrefix(t *testing.T) {
	dev := physDev(4, disk.FaultConfig{CrashOp: 25, CrashTorn: 0})
	m := New(Config{Devices: []disk.Device{dev}})
	defer m.Close()
	acked := 0
	for txn := uint64(1); txn <= 100; txn++ {
		if _, err := m.Append(txn, []byte{byte(txn)}); err != nil {
			break
		}
		if err := m.Commit(txn); err != nil {
			break
		}
		acked++
	}
	if acked == 0 || acked == 100 {
		t.Fatalf("acked = %d, want a mid-run crash", acked)
	}
	if !m.Crashed() {
		t.Fatal("manager did not observe the device crash")
	}
	entries := RecoverDeviceEntries(dev)
	if len(entries) < acked {
		t.Fatalf("durable image has %d entries but %d commits were acked", len(entries), acked)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPhysicalLazyFlushWritesFrames checks the LazyFlush commit path
// really pushes frames into the device cache, and a clean Close makes
// them durable.
func TestPhysicalLazyFlushWritesFrames(t *testing.T) {
	dev := fastDevice(5)
	m := New(Config{Devices: []disk.Device{dev}, Policy: LazyFlush, FlushInterval: time.Millisecond})
	for txn := uint64(1); txn <= 10; txn++ {
		if _, err := m.Append(txn, []byte{byte(txn)}); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if dev.WrittenLen() == 0 {
		t.Fatal("LazyFlush commit wrote no frames to the device cache")
	}
	m.Close()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	entries := RecoverDeviceEntries(dev)
	if len(entries) != 10 {
		t.Fatalf("after clean close, durable image has %d entries, want 10", len(entries))
	}
}

func TestDecodeFrameNeverPanics(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x31, 0x4c, 0x41, 0x57}, // magic only
		bytes.Repeat([]byte{0xff}, frameHeaderSize+8),
		appendFrame(nil, &batch{txn: 1, first: 1, data: []byte("x"), ends: []int{1}})[:10],
	}
	for i, c := range cases {
		if _, _, err := decodeFrame(c); err == nil {
			t.Errorf("case %d: corrupt input decoded without error", i)
		}
	}
}
