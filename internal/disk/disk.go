// Package disk simulates a block storage device with realistic latency
// behaviour. It substitutes for the spinning disks of the paper's testbed:
// the commit path (redo-log flush) and buffer-pool page I/O go through a
// Device, whose service times follow a seeded log-normal distribution with
// occasional heavy-tail stalls — the inherent I/O variance the paper
// observes in fil_flush (MySQL) and the WALWriteLock convoy (Postgres).
//
// A Device serializes requests like a single-spindle disk: concurrent
// writers queue on the device and the queueing delay itself becomes a
// latency-variance source, which is exactly the pathology parallel logging
// (§6.2) attacks by spreading log writes across two devices.
package disk

import (
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/faultfs"
	"vats/internal/xrand"
)

// Config describes a simulated device.
type Config struct {
	// Name identifies the device in stats output.
	Name string
	// MedianLatency is the median per-operation service time (seek +
	// rotational cost for one I/O op).
	MedianLatency time.Duration
	// Sigma is the log-normal shape parameter; 0 gives deterministic
	// service times.
	Sigma float64
	// TailP is the probability that an operation hits a stall (e.g., a
	// device cache flush), multiplying its service time by TailX.
	TailP float64
	// TailX is the stall multiplier.
	TailX float64
	// BlockSize is the device block size in bytes. Writes are rounded up
	// to whole blocks; each block adds BytePerBlockCost transfer time.
	BlockSize int
	// PerByte is the transfer cost per byte actually written (a full
	// block is always transferred, mirroring the paper's fig. 4 right).
	PerByte time.Duration
	// PreciseWait makes the device busy-wait instead of sleeping, so
	// microsecond-scale service times are honoured exactly. time.Sleep
	// rounds up to the kernel timer granularity (~1ms on coarse-tick
	// hosts), which would inflate a 2µs device to ~1ms per op — useless
	// for benchmarks that want hardware out of the picture. Burns a CPU
	// while waiting, so it is opt-in and meant for near-zero-latency
	// benchmark devices only.
	PreciseWait bool
	// Faults attaches a deterministic fault plan to WriteData and Sync:
	// transient I/O errors, dropped fsyncs, stalls, and the machine crash
	// point (see fault.go). Nil means no faults; the device records the
	// bytes written to it either way.
	Faults *faultfs.Plan
	// Seed seeds the latency sampler.
	Seed int64
}

// DefaultConfig returns a device resembling a buffered spinning disk,
// scaled down so experiments complete quickly: ~300µs median op latency
// with moderate spread and rare 8x stalls.
func DefaultConfig(name string, seed int64) Config {
	return Config{
		Name:          name,
		MedianLatency: 300 * time.Microsecond,
		Sigma:         0.4,
		TailP:         0.02,
		TailX:         8,
		BlockSize:     8 * 1024,
		PerByte:       4 * time.Nanosecond,
		Seed:          seed,
	}
}

// Stats reports cumulative device activity.
type Stats struct {
	Ops        int64
	BytesDone  int64
	BlocksDone int64
	// BusyTime is total service time spent (excluding queueing).
	BusyTime time.Duration
	// MaxWaiters is the high-water mark of concurrent queued requests.
	MaxWaiters int32
}

// Sim is the simulated single-spindle block device implementation of
// Device. All methods are safe for concurrent use; requests serialize
// on the device as on real hardware.
type Sim struct {
	cfg Config
	lat *xrand.LogNormal

	mu         sync.Mutex // the "spindle": one request at a time
	waiters    int32
	maxWaiters int32

	ops    atomic.Int64
	bytes  atomic.Int64
	blocks atomic.Int64
	busyNs atomic.Int64

	// The bytes written through WriteData (see fault.go).
	img image
}

// New creates a simulated device from cfg. Zero-valued fields get safe
// defaults.
func New(cfg Config) *Sim {
	if cfg.MedianLatency <= 0 {
		cfg.MedianLatency = 300 * time.Microsecond
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 8 * 1024
	}
	d := &Sim{cfg: cfg}
	d.lat = xrand.NewLogNormal(xrand.New(cfg.Seed),
		float64(cfg.MedianLatency)/float64(time.Millisecond),
		cfg.Sigma, cfg.TailP, cfg.TailX)
	return d
}

// Config returns the device's configuration.
func (d *Sim) Config() Config { return d.cfg }

// Waiters returns the number of requests currently queued or in service
// (introspection; the WAL picks a log stream by its own backlog).
func (d *Sim) Waiters() int { return int(atomic.LoadInt32(&d.waiters)) }

// WriteBytes performs a buffered write of n bytes: the data is rounded
// up to whole blocks, each block is a separate I/O operation paying the
// per-op service time, and every block transfers BlockSize bytes even if
// the payload only fills part of it. This is the trade-off behind the
// paper's fig. 4 (right): larger blocks mean fewer operations per
// transaction, but once log records occupy only a small part of a block,
// the wasted transfer outweighs the savings. Returns the time spent
// (service + queueing).
func (d *Sim) WriteBytes(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	blocks := (n + d.cfg.BlockSize - 1) / d.cfg.BlockSize
	return d.serve(blocks, blocks, blocks*d.cfg.BlockSize)
}

// Fsync flushes the device cache: a single operation with the device's
// full latency profile. This is the expensive call on the commit path.
func (d *Sim) Fsync() time.Duration {
	return d.serve(1, 0, 0)
}

// ReadBlock reads one block (a buffer-pool miss).
func (d *Sim) ReadBlock() time.Duration {
	return d.serve(1, 1, d.cfg.BlockSize)
}

// WriteBlock writes one block (a buffer-pool eviction write-back).
func (d *Sim) WriteBlock() time.Duration {
	return d.serve(1, 1, d.cfg.BlockSize)
}

func (d *Sim) serve(ops, blocks, transferBytes int) time.Duration {
	return d.serveStalled(ops, blocks, transferBytes, 0)
}

// serveStalled is serve with an extra injected stall (a device-cache
// hiccup from the fault plan) added to the service time.
func (d *Sim) serveStalled(ops, blocks, transferBytes int, stall time.Duration) time.Duration {
	start := time.Now()
	w := atomic.AddInt32(&d.waiters, 1)
	for {
		old := atomic.LoadInt32(&d.maxWaiters)
		if w <= old || atomic.CompareAndSwapInt32(&d.maxWaiters, old, w) {
			break
		}
	}
	d.mu.Lock()
	service := time.Duration(float64(ops) * d.lat.Sample() * float64(time.Millisecond))
	service += time.Duration(blocks) * time.Duration(d.cfg.BlockSize) * d.cfg.PerByte
	service += stall
	_ = transferBytes
	if service > 0 {
		if d.cfg.PreciseWait {
			spinWait(service)
		} else {
			time.Sleep(service)
		}
	}
	d.mu.Unlock()
	atomic.AddInt32(&d.waiters, -1)

	d.ops.Add(int64(ops))
	d.blocks.Add(int64(blocks))
	d.bytes.Add(int64(transferBytes))
	d.busyNs.Add(int64(service))
	return time.Since(start)
}

// spinWait busy-waits for d with sub-microsecond accuracy.
func spinWait(d time.Duration) {
	deadline := time.Now().Add(d)
	for !time.Now().After(deadline) {
	}
}

// Close is a no-op: simulated devices hold no OS resources.
func (d *Sim) Close() error { return nil }

// Stats returns cumulative activity counters.
func (d *Sim) Stats() Stats {
	return Stats{
		Ops:        d.ops.Load(),
		BytesDone:  d.bytes.Load(),
		BlocksDone: d.blocks.Load(),
		BusyTime:   time.Duration(d.busyNs.Load()),
		MaxWaiters: atomic.LoadInt32(&d.maxWaiters),
	}
}
