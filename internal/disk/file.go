package disk

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SyncMode selects how a File device makes bytes durable.
type SyncMode int

const (
	// FdatasyncPerSync buffers writes in the OS page cache and issues
	// one fdatasync per Sync call — the classic WAL shape: cheap
	// writes, one barrier per group commit.
	FdatasyncPerSync SyncMode = iota
	// ODSync opens the file with O_DSYNC so every write returns only
	// once the data is on stable storage; Sync becomes a no-op. Higher
	// per-write cost, no separate barrier.
	ODSync
)

// FileConfig describes a real-file device.
type FileConfig struct {
	// Path is the backing file. The block-I/O space (buffer-pool page
	// reads and write-backs) lives beside it in Path + ".pages".
	Path string
	// Name identifies the device in stats output (default: Path).
	Name string
	// Mode selects the durability mechanism (default FdatasyncPerSync).
	// When a fault plan is attached the device always runs the
	// fdatasync cache model regardless of Mode, so the injected crash
	// surface (volatile cache, torn flushes) matches the simulated
	// device exactly.
	Mode SyncMode
	// PreallocBytes sizes the file up front so appends never pay
	// block-allocation latency spikes mid-run (0 = no preallocation).
	PreallocBytes int64
	// BlockSize is the block-I/O granularity in bytes (default 8192).
	BlockSize int
	// Faults attaches a deterministic fault plan: transient I/O errors,
	// dropped fsyncs, stalls, torn writes (partial pwrite) and the
	// machine crash point — op-indexed identically to the simulated
	// device, so a seed replays the same schedule on either backend.
	Faults *Plan
}

// File is a real-OS-file implementation of Device: WriteData is a
// positional write at the stream's append offset, Sync an fdatasync
// (or a no-op under O_DSYNC), and WriteBytes/ReadBlock/WriteBlock real
// block I/O against a sibling ".pages" file. The crash ledger is the
// simulated device's (core.go), so the torture harness audits both
// backends with the same rules: under a fault plan, bytes written but
// not yet synced are treated as lost on crash even though they
// physically reached the file — DurableImage returns only the
// acknowledged-durable prefix.
type File struct {
	core
	fcfg  FileConfig
	f     *os.File
	dsync bool // opened O_DSYNC: a write returns durable, Sync is a no-op

	// Block-I/O space: lazily created Path+".pages", a rotating window
	// of real blocks (the pool tracks page identity; the device only
	// needs to pay and perform real block-sized I/O).
	pagesMu   sync.Mutex
	pages     *os.File
	blkCursor atomic.Int64

	closed atomic.Bool
}

// pagesWindowBlocks bounds the ".pages" block space: block I/O rotates
// through this many real blocks.
const pagesWindowBlocks = 1024

// OpenFile opens (creating if absent) a real-file device at
// cfg.Path. The file is truncated to zero length: a Device is an
// append-only byte stream from birth, and recovery reads images, not
// files, so reopening an old file would corrupt the op accounting.
func OpenFile(cfg FileConfig) (*File, error) {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 8 * 1024
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Path
	}
	dsync := cfg.Mode == ODSync && cfg.Faults == nil
	flags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if dsync {
		flags |= oDSync
	}
	f, err := os.OpenFile(cfg.Path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", cfg.Path, err)
	}
	if cfg.PreallocBytes > 0 {
		if err := f.Truncate(cfg.PreallocBytes); err != nil {
			f.Close()
			return nil, fmt.Errorf("disk: preallocate %s: %w", cfg.Path, err)
		}
	}
	d := &File{
		core:  core{cfg: Config{Name: cfg.Name, BlockSize: cfg.BlockSize, Faults: cfg.Faults}},
		fcfg:  cfg,
		f:     f,
		dsync: dsync,
	}
	d.st = d
	return d, nil
}

// WriteData appends p to the stream with one positional write at the
// append offset; the fault plan's outcome is settled as core.settle
// describes (a torn write is a partial pwrite).
func (d *File) WriteData(p []byte) error {
	o, err := d.consult(opWrite)
	if err != nil {
		return err
	}
	blocks := d.blocksOf(len(p))
	d.enter()
	start := time.Now()
	if o.stall > 0 {
		time.Sleep(o.stall)
	}
	before := d.n
	err = d.settle(opWrite, o, p)
	if err == nil && d.dsync {
		// O_DSYNC: the write returned with the data on stable storage.
		d.durableLen, d.ackedLen = d.n, d.n
	}
	moved := blocks
	if err != nil && !o.crash {
		moved = 0 // a transient or pwrite error moved nothing
	}
	d.exit(blocks, moved, d.n-before, time.Since(start))
	return err
}

// Sync makes the written stream durable: an fdatasync in the default
// mode, a no-op under O_DSYNC; the fault plan's outcome is settled as
// core.settle describes.
func (d *File) Sync() error {
	o, err := d.consult(opFsync)
	if err != nil {
		return err
	}
	d.enter()
	start := time.Now()
	if o.stall > 0 {
		time.Sleep(o.stall)
	}
	err = d.settle(opFsync, o, nil)
	d.exit(1, 0, 0, time.Since(start))
	return err
}

// put writes p at the stream's append offset.
func (d *File) put(p []byte) error {
	if _, err := d.f.WriteAt(p, int64(d.n)); err != nil {
		return fmt.Errorf("disk: pwrite %s: %w", d.fcfg.Path, err)
	}
	return nil
}

// flush is an fdatasync, or nothing under O_DSYNC.
func (d *File) flush() error {
	if d.dsync {
		return nil
	}
	if err := fdatasync(d.f); err != nil {
		return fmt.Errorf("disk: fdatasync %s: %w", d.fcfg.Path, err)
	}
	return nil
}

// prefix reads the stream's first n bytes back from the file.
func (d *File) prefix(n int) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	if _, err := d.f.ReadAt(out, 0); err != nil {
		return nil
	}
	return out
}

// Fsync flushes the stream (the latency-model entry point).
func (d *File) Fsync() time.Duration {
	start := time.Now()
	_ = d.Sync()
	return time.Since(start)
}

// WriteBytes writes n payload bytes rounded up to whole blocks into the
// pages space (the latency-model entry point; like the simulated
// device's, it leaves the byte stream alone — the WAL uses WriteData).
func (d *File) WriteBytes(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return d.blockIO(d.blocksOf(n), (*os.File).WriteAt)
}

// ReadBlock reads one real block from the pages space (a buffer-pool
// miss).
func (d *File) ReadBlock() time.Duration { return d.blockIO(1, (*os.File).ReadAt) }

// WriteBlock writes one real block to the pages space (an eviction
// write-back).
func (d *File) WriteBlock() time.Duration { return d.blockIO(1, (*os.File).WriteAt) }

var blockBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8192); return &b }}

// blockIO reads or writes k blocks at the next offsets of the pages
// space, counts them, and returns the time spent.
func (d *File) blockIO(k int, io func(*os.File, []byte, int64) (int, error)) time.Duration {
	start := time.Now()
	if f, err := d.pagesFile(); err == nil {
		buf := blockBufs.Get().(*[]byte)
		b := (*buf)[:cap(*buf)]
		for len(b) < d.cfg.BlockSize {
			b = append(b, make([]byte, d.cfg.BlockSize-len(b))...)
		}
		for range k {
			// The latency model reports time spent, not errors.
			_, _ = io(f, b[:d.cfg.BlockSize], d.nextBlockOffset())
		}
		*buf = b
		blockBufs.Put(buf)
	}
	el := time.Since(start)
	d.count(k, k, k*d.cfg.BlockSize, el)
	return el
}

// pagesFile lazily opens the ".pages" block space.
func (d *File) pagesFile() (*os.File, error) {
	d.pagesMu.Lock()
	defer d.pagesMu.Unlock()
	if d.pages != nil {
		return d.pages, nil
	}
	f, err := os.OpenFile(d.fcfg.Path+".pages", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: open pages %s: %w", d.fcfg.Path, err)
	}
	if err := f.Truncate(int64(pagesWindowBlocks) * int64(d.cfg.BlockSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: size pages %s: %w", d.fcfg.Path, err)
	}
	d.pages = f
	return f, nil
}

func (d *File) nextBlockOffset() int64 {
	c := d.blkCursor.Add(1)
	return (c % pagesWindowBlocks) * int64(d.cfg.BlockSize)
}

// Close closes the backing files. Idempotent.
func (d *File) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	err := d.f.Close()
	d.pagesMu.Lock()
	if d.pages != nil {
		if cerr := d.pages.Close(); err == nil {
			err = cerr
		}
	}
	d.pagesMu.Unlock()
	return err
}
