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
//
// The spindle and the crash ledger (core.go) are written once and shared
// by both backends; the seeded fault plan that drives the ledger, and the
// torture harness with it, is Plan (plan.go).
package disk

import (
	"time"

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
	// point (see core.go). Nil means no faults; the device records the
	// bytes written to it either way.
	Faults *Plan
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
// on the device as on real hardware. Its service times are sampled and
// slept (or spun) holding the spindle; the bytes written through
// WriteData are kept in memory.
type Sim struct {
	core
	lat *xrand.LogNormal
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
	d := &Sim{core: core{cfg: cfg}}
	d.st = &d.img
	d.lat = xrand.NewLogNormal(xrand.New(cfg.Seed),
		float64(cfg.MedianLatency)/float64(time.Millisecond),
		cfg.Sigma, cfg.TailP, cfg.TailX)
	return d
}

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
	blocks := d.blocksOf(n)
	return d.serve(blocks, blocks)
}

// Fsync flushes the device cache: a single operation with the device's
// full latency profile. This is the expensive call on the commit path.
func (d *Sim) Fsync() time.Duration {
	return d.serve(1, 0)
}

// ReadBlock reads one block (a buffer-pool miss).
func (d *Sim) ReadBlock() time.Duration {
	return d.serve(1, 1)
}

// WriteBlock writes one block (a buffer-pool eviction write-back).
func (d *Sim) WriteBlock() time.Duration {
	return d.serve(1, 1)
}

// serve runs one latency-model request of ops operations moving blocks
// whole blocks, and returns the time spent (service + queueing).
func (d *Sim) serve(ops, blocks int) time.Duration {
	start := time.Now()
	d.enter()
	d.exit(ops, blocks, blocks*d.cfg.BlockSize, d.spend(ops, blocks, 0))
	return time.Since(start)
}

// WriteData appends p to the device's volatile write cache, charging
// the same latency a WriteBytes of len(p) would; the fault plan's
// outcome is settled as core.settle describes.
func (d *Sim) WriteData(p []byte) error {
	o, err := d.consult(opWrite)
	if err != nil {
		return err
	}
	blocks := d.blocksOf(len(p))
	d.enter()
	service := d.spend(blocks, blocks, o.stall)
	err = d.settle(opWrite, o, p)
	d.exit(blocks, blocks, blocks*d.cfg.BlockSize, service)
	return err
}

// Sync flushes the write cache to the platter, charging Fsync latency;
// the fault plan's outcome is settled as core.settle describes.
func (d *Sim) Sync() error {
	o, err := d.consult(opFsync)
	if err != nil {
		return err
	}
	d.enter()
	service := d.spend(1, 0, o.stall)
	err = d.settle(opFsync, o, nil)
	d.exit(1, 0, 0, service)
	return err
}

// spend samples the service time of ops operations moving blocks whole
// blocks, plus an injected stall (a device-cache hiccup from the fault
// plan), and waits it out. Caller holds the spindle.
func (d *Sim) spend(ops, blocks int, stall time.Duration) time.Duration {
	service := time.Duration(float64(ops) * d.lat.Sample() * float64(time.Millisecond))
	service += time.Duration(blocks) * time.Duration(d.cfg.BlockSize) * d.cfg.PerByte
	service += stall
	if service > 0 {
		if d.cfg.PreciseWait {
			spinWait(service)
		} else {
			time.Sleep(service)
		}
	}
	return service
}

// spinWait busy-waits for d with sub-microsecond accuracy.
func spinWait(d time.Duration) {
	deadline := time.Now().Add(d)
	for !time.Now().After(deadline) {
	}
}

// Close is a no-op: simulated devices hold no OS resources.
func (d *Sim) Close() error { return nil }

// image keeps a Sim's byte stream in imageChunk-byte pieces, every one
// full but the last, so a long log never pays slice-doubling slack.
type image struct{ chunks [][]byte }

// imageChunk is the size of one piece of a Sim's byte image.
const imageChunk = 64 << 10

func (im *image) put(p []byte) error {
	for len(p) > 0 {
		if len(im.chunks) == 0 || len(im.chunks[len(im.chunks)-1]) == imageChunk {
			im.chunks = append(im.chunks, make([]byte, 0, imageChunk))
		}
		last := &im.chunks[len(im.chunks)-1]
		k := min(len(p), imageChunk-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	return nil
}

// flush has nothing to do: the "platter" is the same memory as the cache.
func (im *image) flush() error { return nil }

func (im *image) prefix(n int) []byte {
	if n == 0 {
		return nil
	}
	out := make([]byte, 0, n)
	for _, c := range im.chunks {
		if len(out) == n {
			break
		}
		out = append(out, c[:min(len(c), n-len(out))]...)
	}
	return out
}
