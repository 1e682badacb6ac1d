package disk

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func faultDev(plan *Plan) *Sim {
	return New(Config{MedianLatency: time.Microsecond, BlockSize: 4096, Seed: 1, Faults: plan})
}

func TestFaultDeviceWriteSyncPersists(t *testing.T) {
	d := faultDev(nil) // no plan: the device still keeps its bytes
	if err := d.WriteData([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteData([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if img := d.DurableImage(); len(img) != 0 {
		t.Fatalf("unsynced bytes persisted: %q", img)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if img := d.DurableImage(); !bytes.Equal(img, []byte("hello world")) {
		t.Fatalf("durable image = %q", img)
	}
}

func TestFaultDeviceCrashLosesCache(t *testing.T) {
	// Crash at op 3: write, sync, then the second write is the crash
	// point with nothing torn in.
	d := faultDev(NewPlan(2, FaultConfig{CrashOp: 3, CrashTorn: 0}))
	d.WriteData([]byte("aa"))
	d.Sync()
	err := d.WriteData([]byte("bb"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op = %v, want ErrCrashed", err)
	}
	if img := d.DurableImage(); !bytes.Equal(img, []byte("aa")) {
		t.Fatalf("durable image = %q, want only the synced prefix", img)
	}
}

func TestFaultDeviceTornFsync(t *testing.T) {
	// Crash at the fsync (op 2) persisting half the cache.
	d := faultDev(NewPlan(3, FaultConfig{CrashOp: 2, CrashTorn: 0.5}))
	d.WriteData([]byte("abcdefgh"))
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if img := d.DurableImage(); !bytes.Equal(img, []byte("abcd")) {
		t.Fatalf("torn image = %q, want first half", img)
	}
}

func TestFaultDeviceDroppedFsyncLies(t *testing.T) {
	// Every fsync drops.
	d := faultDev(NewPlan(4, FaultConfig{DropFsyncP: 1}))
	d.WriteData([]byte("xy"))
	if err := d.Sync(); err != nil {
		t.Fatalf("dropped fsync must report success, got %v", err)
	}
	if img := d.DurableImage(); len(img) != 0 {
		t.Fatalf("dropped fsync persisted bytes: %q", img)
	}
	if img := d.AckedImage(); !bytes.Equal(img, []byte("xy")) {
		t.Fatalf("acked image = %q, want the lied-about bytes", img)
	}
	if d.Lies() != 1 {
		t.Fatalf("lies = %d, want 1", d.Lies())
	}
}

func TestFaultDeviceTransientErrorHasNoEffect(t *testing.T) {
	// Every write/fsync errors transiently.
	d := faultDev(NewPlan(5, FaultConfig{IOErrorP: 1}))
	if err := d.WriteData([]byte("zz")); !errors.Is(err, ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	if n := d.WrittenLen(); n != 0 {
		t.Fatalf("failed write accepted %d bytes", n)
	}
	if err := d.Sync(); !errors.Is(err, ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
}

// TestSimImageHeap guards the memory a Sim's byte image costs: 70 MiB
// written in seeded pieces may grow the heap by at most the bytes
// themselves plus 1 MiB. A single append-grown slice would leave ~15%
// slack at this size (70 MiB of data in an 80 MiB slice).
func TestSimImageHeap(t *testing.T) {
	const total = 70 << 20
	pat := func(k int) byte { return byte(k ^ k>>8 ^ k>>16) }
	d := New(Config{MedianLatency: time.Nanosecond, BlockSize: 4096, PreciseWait: true})
	piece := make([]byte, 9000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := rand.New(rand.NewSource(7))
	for off := 0; off < total; {
		p := piece[:min(1+r.Intn(9000), total-off)]
		for i := range p {
			p[i] = pat(off + i)
		}
		if err := d.WriteData(p); err != nil {
			t.Fatal(err)
		}
		off += len(p)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew > total+1<<20 {
		t.Errorf("heap grew %d bytes for a %d-byte image", grew, total)
	}
	for name, img := range map[string]func() []byte{"durable": d.DurableImage, "acked": d.AckedImage} {
		b := img()
		if len(b) != total {
			t.Fatalf("%s image holds %d bytes, want %d", name, len(b), total)
		}
		for k, c := range b {
			if c != pat(k) {
				t.Fatalf("%s image byte %d = %#x, want %#x", name, k, c, pat(k))
			}
		}
	}
}
