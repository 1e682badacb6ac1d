package disk

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// agree drives one seeded WriteData/Sync sequence (plus WriteBytes calls
// with probability writeBytesP) into a Sim and into a File, each with its
// own plan of the same seed and fault mix, and fails at the first point
// where the two devices' crash accounting differs: the error of an
// operation, the durable or acked image, Lies or WrittenLen.
func agree(t *testing.T, seed int64, cfg FaultConfig, writeBytesP float64) {
	t.Helper()
	sim := New(Config{MedianLatency: time.Nanosecond, BlockSize: 4096, PreciseWait: true,
		Seed: seed, Faults: NewPlan(seed, cfg)})
	file, err := OpenFile(FileConfig{Path: filepath.Join(t.TempDir(), "dev.wal"),
		BlockSize: 4096, Faults: NewPlan(seed, cfg)})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	r := rand.New(rand.NewSource(seed))
	buf := make([]byte, 3*4096)
	for op := 0; op < 80; op++ {
		var es, ef error
		what := "Sync"
		switch x := r.Float64(); {
		case x < writeBytesP:
			what = "WriteBytes"
			n := 1 + r.Intn(len(buf))
			sim.WriteBytes(n)
			file.WriteBytes(n)
		case x < writeBytesP+0.3:
			es, ef = sim.Sync(), file.Sync()
		default:
			what = "WriteData"
			p := buf[:1+r.Intn(len(buf))]
			r.Read(p)
			es, ef = sim.WriteData(p), file.WriteData(p)
		}
		if es != ef {
			t.Fatalf("seed %d op %d %s: sim err %v, file err %v", seed, op, what, es, ef)
		}
		if s, f := sim.WrittenLen(), file.WrittenLen(); s != f {
			t.Fatalf("seed %d op %d %s: WrittenLen sim %d, file %d", seed, op, what, s, f)
		}
		if s, f := sim.Lies(), file.Lies(); s != f {
			t.Fatalf("seed %d op %d %s: Lies sim %d, file %d", seed, op, what, s, f)
		}
		if !bytes.Equal(sim.DurableImage(), file.DurableImage()) {
			t.Fatalf("seed %d op %d %s: durable images differ", seed, op, what)
		}
		if !bytes.Equal(sim.AckedImage(), file.AckedImage()) {
			t.Fatalf("seed %d op %d %s: acked images differ", seed, op, what)
		}
	}
}

// agreeConfig is the fault mix of seed's run: transient errors, dropped
// fsyncs, a seeded torn fraction, and a crash point for most seeds.
func agreeConfig(seed int64) FaultConfig {
	cfg := FaultConfig{IOErrorP: 0.1, DropFsyncP: 0.2, CrashTorn: -1}
	if seed%5 != 0 {
		cfg.CrashOp = 5 + seed*7%70
	}
	return cfg
}

// TestBackendsAgreeUnderPlan: Sim and File have the same crash
// semantics, so the same operations under the same plan leave the same
// errors, images and counts on both.
func TestBackendsAgreeUnderPlan(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		agree(t, seed, agreeConfig(seed), 0)
	}
}

// TestBackendsAgreeWithWriteBytes: WriteBytes is block I/O in the
// latency model on both backends and leaves the byte stream alone, so
// interleaving it with the log's writes and syncs changes neither
// device's images or counts.
func TestBackendsAgreeWithWriteBytes(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		agree(t, seed, agreeConfig(seed), 0.2)
	}
}

// TestScheduleDigestPinned: a plan's schedule is a pure function of its
// seed and fault mix, and stays the same from one version of the code to
// the next, so an old torture repro line still replays the same faults.
func TestScheduleDigestPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		cfg  FaultConfig
		want uint64
	}{
		{20260808, FaultConfig{CrashOp: 97, CrashTorn: -1, DropFsyncP: 0.1, IOErrorP: 0.05}, 0x9fed25e0f64fe511},
		{7, FaultConfig{IOErrorP: 0.2, DropFsyncP: 0.25}, 0xb4bd4946c4dcd590},
		{-3, FaultConfig{StallP: 0.1, StallDur: time.Millisecond, CrashOp: 600, CrashTorn: 0.5}, 0xbc4b416cf5975313},
	} {
		if got := NewPlan(c.seed, c.cfg).ScheduleDigest(1024); got != c.want {
			t.Errorf("seed %d %+v: ScheduleDigest(1024) = %#x, want %#x", c.seed, c.cfg, got, c.want)
		}
	}
}

// TestWriteSyncAllocs: the log's WriteData+Sync path allocates nothing
// on either backend, with or without a fault plan (a Sim's 64 KiB image
// chunk, once per ~200 of these 300-byte writes, rounds away).
func TestWriteSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	p := make([]byte, 300)
	for _, plan := range []*Plan{nil, NewPlan(1, FaultConfig{})} {
		file, err := OpenFile(FileConfig{Path: filepath.Join(t.TempDir(), "dev.wal"), BlockSize: 4096, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		sim := New(Config{MedianLatency: time.Nanosecond, BlockSize: 4096, PreciseWait: true, Faults: plan})
		for name, d := range map[string]Device{"sim": sim, "file": file} {
			if a := testing.AllocsPerRun(500, func() { d.WriteData(p); d.Sync() }); a != 0 {
				t.Errorf("%s (plan %v): %v allocations per WriteData+Sync, want 0", name, plan != nil, a)
			}
		}
	}
}
