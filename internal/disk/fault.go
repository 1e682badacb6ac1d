package disk

import (
	"sync"

	"vats/internal/faultfs"
)

// Every Sim behaves like a real append-only log file with a volatile
// write cache: WriteData appends bytes to the cache, Sync persists the
// cache, and the persisted byte image is what crash recovery reads back.
// When Config.Faults carries a faultfs.Plan, the plan also injects
// transient errors, silently dropped fsyncs, stalls and the machine
// crash point — so torn writes, lost suffixes and lying fsyncs all
// surface exactly where they would on real hardware.
//
// State is a single logical byte stream of n bytes:
//
//	stream[0:durableLen]  — on the platter; survives a crash
//	stream[durableLen:n]  — in the volatile write cache
//	stream[0:ackedLen]    — what the device has *claimed* is durable
//
// ackedLen ≥ durableLen exactly when a dropped fsync lied; the torture
// harness uses the gap to tell forgivable losses (the device lied) from
// real durability bugs (the WAL acked what it never synced).
type image struct {
	mu sync.Mutex
	// chunks hold the stream in imageChunk-byte pieces, every one full
	// but the last, so a long log never pays slice-doubling slack.
	chunks     [][]byte
	n          int
	durableLen int
	ackedLen   int
	lies       int
}

// imageChunk is the size of one piece of a Sim's byte image.
const imageChunk = 64 << 10

// appendLocked adds p to the end of the stream. Caller holds im.mu.
func (im *image) appendLocked(p []byte) {
	for len(p) > 0 {
		if im.n == len(im.chunks)*imageChunk {
			im.chunks = append(im.chunks, make([]byte, 0, imageChunk))
		}
		last := &im.chunks[len(im.chunks)-1]
		k := min(len(p), imageChunk-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
		im.n += k
	}
}

// prefix returns a copy of the first n bytes of the stream (nil when n
// is 0).
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

// WriteData appends p to the device's volatile write cache, charging
// the same latency a WriteBytes of len(p) would. Under a fault plan the
// write may fail transiently (ErrIO, no bytes accepted) or be the crash
// point, in which case a seeded prefix of p reaches the cache before the
// machine dies (a torn write; the cache is volatile, so those bytes are
// lost anyway unless a torn fsync follows).
func (d *Sim) WriteData(p []byte) error {
	var o faultfs.Outcome
	if plan := d.cfg.Faults; plan != nil {
		if plan.Crashed() {
			return faultfs.ErrCrashed
		}
		o = plan.Next(faultfs.OpWrite)
	}
	blocks := (len(p) + d.cfg.BlockSize - 1) / d.cfg.BlockSize
	d.serveStalled(blocks, blocks, blocks*d.cfg.BlockSize, o.Stall)
	if o.Err {
		return faultfs.ErrIO
	}
	if o.Crash {
		p = p[:int(o.Torn*float64(len(p)))]
	}
	d.img.mu.Lock()
	d.img.appendLocked(p)
	d.img.mu.Unlock()
	if o.Crash {
		return faultfs.ErrCrashed
	}
	return nil
}

// Sync flushes the write cache to the platter, charging Fsync latency.
// Outcomes under a fault plan:
//
//   - transient error: nothing persists, ErrIO returned;
//   - dropped fsync:   nothing persists, success returned (the device
//     lies; the bytes persist at the next honest Sync);
//   - crash point:     a seeded prefix of the cache persists (a torn
//     flush), then the machine dies (ErrCrashed);
//   - otherwise:       the whole cache persists.
func (d *Sim) Sync() error {
	var o faultfs.Outcome
	if plan := d.cfg.Faults; plan != nil {
		if plan.Crashed() {
			return faultfs.ErrCrashed
		}
		o = plan.Next(faultfs.OpFsync)
	}
	d.serveStalled(1, 0, 0, o.Stall)
	im := &d.img
	im.mu.Lock()
	defer im.mu.Unlock()
	switch {
	case o.Crash:
		im.durableLen += int(o.Torn * float64(im.n-im.durableLen))
		return faultfs.ErrCrashed
	case o.Err:
		return faultfs.ErrIO
	case o.DropFsync:
		im.ackedLen = im.n
		im.lies++
		return nil
	}
	im.durableLen = im.n
	im.ackedLen = im.n
	return nil
}

// DurableImage returns a copy of the bytes that actually survived: the
// persisted prefix of the device's logical stream. This is what crash
// recovery decodes.
func (d *Sim) DurableImage() []byte {
	d.img.mu.Lock()
	defer d.img.mu.Unlock()
	return d.img.prefix(d.img.durableLen)
}

// AckedImage returns a copy of the bytes the device *claimed* were
// durable — DurableImage plus anything a dropped fsync lied about.
func (d *Sim) AckedImage() []byte {
	d.img.mu.Lock()
	defer d.img.mu.Unlock()
	return d.img.prefix(d.img.ackedLen)
}

// Lies returns how many fsyncs the device silently dropped.
func (d *Sim) Lies() int {
	d.img.mu.Lock()
	defer d.img.mu.Unlock()
	return d.img.lies
}

// WrittenLen returns the total bytes ever accepted into the cache.
func (d *Sim) WrittenLen() int {
	d.img.mu.Lock()
	defer d.img.mu.Unlock()
	return d.img.n
}
