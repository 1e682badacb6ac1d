package disk

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/faultfs"
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
	Faults *faultfs.Plan
}

// File is a real-OS-file implementation of Device: WriteData is a
// positional write at the stream's append offset, Sync an fdatasync
// (or a no-op under O_DSYNC), ReadBlock/WriteBlock real block I/O
// against a sibling ".pages" file. The durable/acked byte-image
// accounting mirrors the simulated device's volatile-cache model so
// the torture harness audits both backends with the same rules: under
// a fault plan, bytes written but not yet synced are treated as lost
// on crash even though they physically reached the file — DurableImage
// returns only the acknowledged-durable prefix.
type File struct {
	cfg  Config // the Config() surface (Name/BlockSize/Faults)
	fcfg FileConfig
	f    *os.File

	mu         sync.Mutex // serializes stream I/O, like a spindle
	waiters    int32
	maxWaiters int32
	written    int64 // bytes accepted into the stream
	durableLen int64
	ackedLen   int64
	lies       int

	// Block-I/O space: lazily created Path+".pages", a rotating window
	// of real blocks (the pool tracks page identity; the device only
	// needs to pay and perform real block-sized I/O).
	pagesMu   sync.Mutex
	pages     *os.File
	blkCursor atomic.Int64

	ops    atomic.Int64
	bytes  atomic.Int64
	blocks atomic.Int64
	busyNs atomic.Int64

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
	flags := os.O_RDWR | os.O_CREATE | os.O_TRUNC
	if cfg.Mode == ODSync && cfg.Faults == nil {
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
	return &File{
		cfg:  Config{Name: cfg.Name, BlockSize: cfg.BlockSize, Faults: cfg.Faults},
		fcfg: cfg,
		f:    f,
	}, nil
}

// Config returns the device's configuration surface.
func (d *File) Config() Config { return d.cfg }

// Waiters returns the number of requests queued or in service.
func (d *File) Waiters() int { return int(atomic.LoadInt32(&d.waiters)) }

func (d *File) enter() time.Time {
	w := atomic.AddInt32(&d.waiters, 1)
	for {
		old := atomic.LoadInt32(&d.maxWaiters)
		if w <= old || atomic.CompareAndSwapInt32(&d.maxWaiters, old, w) {
			break
		}
	}
	d.mu.Lock()
	return time.Now()
}

func (d *File) exit(start time.Time, ops, blocks, transfer int) time.Duration {
	d.mu.Unlock()
	atomic.AddInt32(&d.waiters, -1)
	el := time.Since(start)
	d.ops.Add(int64(ops))
	d.blocks.Add(int64(blocks))
	d.bytes.Add(int64(transfer))
	d.busyNs.Add(int64(el))
	return el
}

// WriteData appends p to the stream with one positional write at the
// append offset. Under a fault plan the write may fail transiently, or
// be the crash point — in which case a seeded prefix of p reaches the
// file (a torn write via partial pwrite) but stays outside the durable
// image, exactly like the simulated device's volatile cache.
func (d *File) WriteData(p []byte) error {
	plan := d.fcfg.Faults
	if plan != nil && plan.Crashed() {
		return faultfs.ErrCrashed
	}
	var o faultfs.Outcome
	if plan != nil {
		o = plan.Next(faultfs.OpWrite)
	}
	start := d.enter()
	if o.Stall > 0 {
		time.Sleep(o.Stall)
	}
	blocks := (len(p) + d.cfg.BlockSize - 1) / d.cfg.BlockSize
	switch {
	case o.Crash:
		n := int(o.Torn * float64(len(p)))
		if n > 0 {
			d.pwriteStream(p[:n])
			d.written += int64(n)
		}
		d.exit(start, blocks, blocks, n)
		return faultfs.ErrCrashed
	case o.Err:
		d.exit(start, blocks, 0, 0)
		return faultfs.ErrIO
	}
	if err := d.pwriteStream(p); err != nil {
		d.exit(start, blocks, 0, 0)
		return err
	}
	d.written += int64(len(p))
	if d.fcfg.Mode == ODSync && plan == nil {
		// O_DSYNC: the write returned with the data on stable storage.
		d.durableLen = d.written
		d.ackedLen = d.written
	}
	d.exit(start, blocks, blocks, len(p))
	return nil
}

// pwriteStream writes p at the stream's current append offset. Caller
// holds d.mu.
func (d *File) pwriteStream(p []byte) error {
	if _, err := d.f.WriteAt(p, d.written); err != nil {
		return fmt.Errorf("disk: pwrite %s: %w", d.fcfg.Path, err)
	}
	return nil
}

// Sync makes the written stream durable: an fdatasync in the default
// mode, a no-op under O_DSYNC. Fault-plan outcomes mirror the
// simulated device: transient error (nothing persists), dropped fsync
// (the device lies; ackedLen advances, durableLen does not), crash (a
// seeded prefix of the pending bytes becomes durable — a torn flush),
// or an honest full flush.
func (d *File) Sync() error {
	plan := d.fcfg.Faults
	if plan != nil && plan.Crashed() {
		return faultfs.ErrCrashed
	}
	var o faultfs.Outcome
	if plan != nil {
		o = plan.Next(faultfs.OpFsync)
	}
	start := d.enter()
	if o.Stall > 0 {
		time.Sleep(o.Stall)
	}
	switch {
	case o.Crash:
		pending := d.written - d.durableLen
		d.durableLen += int64(o.Torn * float64(pending))
		d.exit(start, 1, 0, 0)
		return faultfs.ErrCrashed
	case o.Err:
		d.exit(start, 1, 0, 0)
		return faultfs.ErrIO
	case o.DropFsync:
		d.ackedLen = d.written
		d.lies++
		d.exit(start, 1, 0, 0)
		return nil
	}
	if !(d.fcfg.Mode == ODSync && plan == nil) {
		if err := fdatasync(d.f); err != nil {
			d.exit(start, 1, 0, 0)
			return fmt.Errorf("disk: fdatasync %s: %w", d.fcfg.Path, err)
		}
	}
	d.durableLen = d.written
	d.ackedLen = d.written
	d.exit(start, 1, 0, 0)
	return nil
}

// WriteBytes performs a block-rounded buffered write of n payload
// bytes into the stream (the latency-model entry point; the WAL uses
// WriteData instead).
func (d *File) WriteBytes(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	blocks := (n + d.cfg.BlockSize - 1) / d.cfg.BlockSize
	buf := blockBufs.Get().(*[]byte)
	b := (*buf)[:cap(*buf)]
	need := blocks * d.cfg.BlockSize
	for len(b) < need {
		b = append(b, make([]byte, need-len(b))...)
	}
	start := d.enter()
	_ = d.pwriteStream(b[:need])
	d.written += int64(need)
	el := d.exit(start, blocks, blocks, need)
	*buf = b
	blockBufs.Put(buf)
	return el
}

// Fsync flushes the stream (the latency-model entry point).
func (d *File) Fsync() time.Duration {
	start := time.Now()
	_ = d.Sync()
	return time.Since(start)
}

var blockBufs = sync.Pool{New: func() any { b := make([]byte, 0, 8192); return &b }}

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

// ReadBlock reads one real block from the pages space (a buffer-pool
// miss).
func (d *File) ReadBlock() time.Duration {
	start := time.Now()
	f, err := d.pagesFile()
	if err != nil {
		return time.Since(start)
	}
	buf := blockBufs.Get().(*[]byte)
	b := (*buf)[:cap(*buf)]
	for len(b) < d.cfg.BlockSize {
		b = append(b, make([]byte, d.cfg.BlockSize-len(b))...)
	}
	_, _ = f.ReadAt(b[:d.cfg.BlockSize], d.nextBlockOffset())
	*buf = b
	blockBufs.Put(buf)
	d.ops.Add(1)
	d.blocks.Add(1)
	d.bytes.Add(int64(d.cfg.BlockSize))
	el := time.Since(start)
	d.busyNs.Add(int64(el))
	return el
}

// WriteBlock writes one real block to the pages space (an eviction
// write-back).
func (d *File) WriteBlock() time.Duration {
	start := time.Now()
	d.writeBlockAt(d.nextBlockOffset())
	d.ops.Add(1)
	d.blocks.Add(1)
	d.bytes.Add(int64(d.cfg.BlockSize))
	el := time.Since(start)
	d.busyNs.Add(int64(el))
	return el
}

func (d *File) writeBlockAt(off int64) {
	f, err := d.pagesFile()
	if err != nil {
		return
	}
	buf := blockBufs.Get().(*[]byte)
	b := (*buf)[:cap(*buf)]
	for len(b) < d.cfg.BlockSize {
		b = append(b, make([]byte, d.cfg.BlockSize-len(b))...)
	}
	_, _ = f.WriteAt(b[:d.cfg.BlockSize], off)
	*buf = b
	blockBufs.Put(buf)
}

// DurableImage returns the bytes that survive a crash: the prefix the
// device acknowledged as durable, read back from the file itself.
func (d *File) DurableImage() []byte {
	d.mu.Lock()
	n := d.durableLen
	d.mu.Unlock()
	return d.preadPrefix(n)
}

// AckedImage returns DurableImage plus anything a dropped fsync lied
// about.
func (d *File) AckedImage() []byte {
	d.mu.Lock()
	n := d.ackedLen
	d.mu.Unlock()
	return d.preadPrefix(n)
}

func (d *File) preadPrefix(n int64) []byte {
	if n <= 0 {
		return nil
	}
	out := make([]byte, n)
	if _, err := d.f.ReadAt(out, 0); err != nil {
		return nil
	}
	return out
}

// Lies returns how many fsyncs the fault plan silently dropped.
func (d *File) Lies() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lies
}

// WrittenLen returns the total bytes ever accepted into the stream.
func (d *File) WrittenLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(d.written)
}

// Stats returns cumulative activity counters.
func (d *File) Stats() Stats {
	return Stats{
		Ops:        d.ops.Load(),
		BytesDone:  d.bytes.Load(),
		BlocksDone: d.blocks.Load(),
		BusyTime:   time.Duration(d.busyNs.Load()),
		MaxWaiters: atomic.LoadInt32(&d.maxWaiters),
	}
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
