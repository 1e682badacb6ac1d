package disk

import "time"

// Device is the storage-device seam every durability layer (WAL, buffer
// pool, checkpointer) writes through. Two implementations exist:
//
//   - Sim (New): the simulated single-spindle latency model the shape
//     experiments run against — service times are sampled, and the bytes
//     written are kept in memory;
//   - File (OpenFile): a real OS file — every WriteData is a pwrite,
//     every Sync an fdatasync (or a no-op under O_DSYNC), so the
//     BENCH numbers measure hardware, not a model.
//
// Both embed one core (core.go): the spindle that serves one request at
// a time, and the crash ledger that keeps the byte stream's crash
// semantics. An optional fault Plan adjudicates every WriteData and Sync
// by machine-wide op index, and the durable/acked byte images are what
// recovery and the torture auditors read back, whether the bytes live in
// memory or on disk. The backends differ only in where the bytes go
// (heap chunks or pwrite/pread) and how service time is spent (a sampled
// sleep or spin holding the spindle, or real syscalls).
type Device interface {
	// Latency-model operations, block-granular (the buffer pool uses
	// the block calls). They return the time spent.
	WriteBytes(n int) time.Duration
	Fsync() time.Duration
	ReadBlock() time.Duration
	WriteBlock() time.Duration

	// Byte-stream operations (the WAL): WriteData appends to the
	// device's volatile write cache, Sync persists it.
	WriteData(p []byte) error
	Sync() error

	// Crash-image accessors. DurableImage is the persisted prefix
	// recovery decodes; AckedImage additionally includes bytes a
	// dropped fsync lied about. Lies counts dropped fsyncs and
	// WrittenLen the bytes ever accepted.
	DurableImage() []byte
	AckedImage() []byte
	Lies() int
	WrittenLen() int

	// Introspection.
	Stats() Stats
	Waiters() int
	Config() Config

	// Close releases OS resources (a no-op for simulated devices).
	Close() error
}

// Interface conformance.
var (
	_ Device = (*Sim)(nil)
	_ Device = (*File)(nil)
)
