package disk

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openTestFile(t *testing.T, cfg FileConfig) *File {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "dev.wal")
	}
	d, err := OpenFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// TestFileFdatasyncDurability: in the default mode bytes written but
// not yet synced are NOT part of the durable image — only a Sync
// (fdatasync) moves the durable prefix, exactly like the simulated
// device's volatile cache model.
func TestFileFdatasyncDurability(t *testing.T) {
	d := openTestFile(t, FileConfig{})
	if err := d.WriteData([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if img := d.DurableImage(); len(img) != 0 {
		t.Fatalf("unsynced bytes in durable image: %q", img)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteData([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("hello ")) {
		t.Fatalf("durable image = %q, want synced prefix only", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("hello world")) {
		t.Fatalf("durable image = %q", got)
	}
	if d.Lies() != 0 {
		t.Fatalf("fault-free device lied %d times", d.Lies())
	}
}

// TestFileODSyncDurability: under O_DSYNC every write returns durable;
// Sync is a no-op barrier.
func TestFileODSyncDurability(t *testing.T) {
	d := openTestFile(t, FileConfig{Mode: ODSync})
	if err := d.WriteData([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("O_DSYNC write not durable: %q", got)
	}
}

// TestFileTruncatesOnOpen: a Device is an append-only stream from
// birth — reopening a path discards the previous incarnation's bytes.
func TestFileTruncatesOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.wal")
	d := openTestFile(t, FileConfig{Path: path})
	if err := d.WriteData([]byte("old bytes")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := openTestFile(t, FileConfig{Path: path})
	if got := d2.DurableImage(); len(got) != 0 {
		t.Fatalf("stale bytes after reopen: %q", got)
	}
	if err := d2.WriteData([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d2.DurableImage(); !bytes.Equal(got, []byte("new")) {
		t.Fatalf("durable image = %q", got)
	}
}

// TestFilePreallocation: preallocation sizes the file up front but the
// durable image covers only stream writes, never the zero tail.
func TestFilePreallocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.wal")
	d := openTestFile(t, FileConfig{Path: path, PreallocBytes: 1 << 16})
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 1<<16 {
		t.Fatalf("file size %d, want preallocated %d", st.Size(), 1<<16)
	}
	if err := d.WriteData([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("xy")) {
		t.Fatalf("durable image = %q", got)
	}
}

// TestFileDroppedFsync: under a fault plan that drops every fsync the
// device acknowledges durability it does not have — AckedImage advances
// (what the upper layers believe), DurableImage does not (what a crash
// preserves), and Lies counts each broken promise.
func TestFileDroppedFsync(t *testing.T) {
	plan := NewPlan(7, FaultConfig{DropFsyncP: 1})
	d := openTestFile(t, FileConfig{Faults: plan})
	if err := d.WriteData([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err) // the lie: Sync reports success
	}
	if got := d.AckedImage(); !bytes.Equal(got, []byte("doomed")) {
		t.Fatalf("acked image = %q, want the acknowledged bytes", got)
	}
	if got := d.DurableImage(); len(got) != 0 {
		t.Fatalf("dropped fsync still made bytes durable: %q", got)
	}
	if d.Lies() != 1 {
		t.Fatalf("lies = %d, want 1", d.Lies())
	}
}

// TestFileODSyncWithFaultsUsesCacheModel: attaching a fault plan
// coerces O_DSYNC to the fdatasync cache model so the injected crash
// surface (volatile cache, dropped fsyncs) matches the simulated
// device — a write alone must NOT be durable.
func TestFileODSyncWithFaultsUsesCacheModel(t *testing.T) {
	plan := NewPlan(11, FaultConfig{})
	d := openTestFile(t, FileConfig{Mode: ODSync, Faults: plan})
	if err := d.WriteData([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); len(got) != 0 {
		t.Fatalf("O_DSYNC with faults should buffer, got durable %q", got)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("buffered")) {
		t.Fatalf("durable image = %q", got)
	}
}

// TestFileCrashPoint: a plan with a crash op kills the device mid-
// stream; every later operation fails with ErrCrashed and the durable
// image stops at the last honest sync.
func TestFileCrashPoint(t *testing.T) {
	// Ops: write(1) sync(2) write(3) -> crash at op 3 with no torn
	// prefix, so only the first synced write survives.
	plan := NewPlan(3, FaultConfig{CrashOp: 3, CrashTorn: 0})
	d := openTestFile(t, FileConfig{Faults: plan})
	if err := d.WriteData([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteData([]byte("second")); err == nil {
		t.Fatal("write at crash op succeeded")
	} else if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync err = %v, want ErrCrashed", err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("first")) {
		t.Fatalf("durable image = %q, want pre-crash prefix", got)
	}
}

// TestFileBlockIO: block reads and writes run against the sibling
// ".pages" file, created lazily, without disturbing the log stream.
func TestFileBlockIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.wal")
	d := openTestFile(t, FileConfig{Path: path, BlockSize: 4096})
	if err := d.WriteData([]byte("log")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.WriteBlock()
	d.ReadBlock()
	if _, err := os.Stat(path + ".pages"); err != nil {
		t.Fatalf("pages sibling missing: %v", err)
	}
	if got := d.DurableImage(); !bytes.Equal(got, []byte("log")) {
		t.Fatalf("block I/O disturbed the stream: %q", got)
	}
}
