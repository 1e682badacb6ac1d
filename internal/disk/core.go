package disk

import (
	"sync"
	"sync/atomic"
	"time"
)

// core is the half of a device that does not depend on where its bytes
// live; Sim and File embed it. It holds two things:
//
// The spindle. One request is served at a time, so concurrent callers
// queue on mu and the queueing delay itself becomes a latency-variance
// source. waiters counts requests queued or in service; the counters
// account for every request served.
//
// The crash ledger. Every device behaves like an append-only log file
// with a volatile write cache: WriteData appends bytes to the cache,
// Sync persists the cache, and the persisted byte image is what crash
// recovery reads back. When Config.Faults carries a Plan, the plan also
// injects transient errors, silently dropped fsyncs, stalls and the
// machine crash point — so torn writes, lost suffixes and lying fsyncs
// all surface exactly where they would on real hardware. The ledger is
// a single logical byte stream of n bytes:
//
//	stream[0:durableLen]  — on the platter; survives a crash
//	stream[durableLen:n]  — in the volatile write cache
//	stream[0:ackedLen]    — what the device has *claimed* is durable
//
// ackedLen ≥ durableLen exactly when a dropped fsync lied; the torture
// harness uses the gap to tell forgivable losses (the device lied) from
// real durability bugs (the WAL acked what it never synced).
type core struct {
	cfg Config

	mu         sync.Mutex // the spindle; also guards the ledger and st
	waiters    atomic.Int32
	maxWaiters atomic.Int32

	ops    atomic.Int64
	blocks atomic.Int64
	busyNs atomic.Int64

	n, durableLen, ackedLen, lies int
	st                            stream
}

// stream is where a backend keeps the ledger's bytes. Callers hold mu.
type stream interface {
	// put appends p at offset n.
	put(p []byte) error
	// flush makes every byte put so far durable.
	flush() error
	// prefix returns a copy of the first n bytes (nil when n is 0).
	prefix(n int) []byte
}

// Config returns the device's configuration.
func (c *core) Config() Config { return c.cfg }

// Waiters returns the number of requests currently queued or in service
// (introspection; the WAL picks a log stream by its own backlog).
func (c *core) Waiters() int { return int(c.waiters.Load()) }

// blocksOf returns how many whole blocks n bytes occupy.
func (c *core) blocksOf(n int) int { return (n + c.cfg.BlockSize - 1) / c.cfg.BlockSize }

// enter queues a request on the spindle and returns once it is served.
func (c *core) enter() {
	w := c.waiters.Add(1)
	for {
		old := c.maxWaiters.Load()
		if w <= old || c.maxWaiters.CompareAndSwap(old, w) {
			break
		}
	}
	c.mu.Lock()
}

// exit frees the spindle and counts the request enter began.
func (c *core) exit(ops, blocks int, busy time.Duration) {
	c.mu.Unlock()
	c.waiters.Add(-1)
	c.count(ops, blocks, busy)
}

// count adds one served request to the activity counters.
func (c *core) count(ops, blocks int, busy time.Duration) {
	c.ops.Add(int64(ops))
	c.blocks.Add(int64(blocks))
	c.busyNs.Add(int64(busy))
}

// Stats returns cumulative activity counters.
func (c *core) Stats() Stats {
	return Stats{
		Ops:        c.ops.Load(),
		BlocksDone: c.blocks.Load(),
		BusyTime:   time.Duration(c.busyNs.Load()),
		MaxWaiters: c.maxWaiters.Load(),
	}
}

// consult draws the fault plan's outcome for the next operation of the
// given kind: ErrCrashed once the machine is off, the zero outcome when
// no plan is attached.
func (c *core) consult(kind opKind) (outcome, error) {
	plan := c.cfg.Faults
	if plan == nil {
		return outcome{}, nil
	}
	if plan.Crashed() {
		return outcome{}, ErrCrashed
	}
	return plan.next(kind), nil
}

// settle carries out outcome o of a write of p (kind opWrite) or of a
// sync (opFsync) on the ledger and the stream, and returns the
// operation's error. Caller holds mu.
//
//   - crash point: a write puts a seeded prefix of p into the cache
//     before the machine dies (a torn write; the cache is volatile, so
//     those bytes are lost anyway unless a torn sync follows); a sync
//     persists a seeded prefix of the cache (a torn flush). ErrCrashed.
//   - transient error: no effect, ErrIO.
//   - a write otherwise puts p into the cache.
//   - dropped fsync: nothing persists, success is reported (the device
//     lies; the bytes persist at the next honest sync).
//   - a sync otherwise persists the whole cache.
func (c *core) settle(kind opKind, o outcome, p []byte) error {
	switch {
	case o.crash && kind == opWrite:
		_ = c.put(p[:int(o.torn*float64(len(p)))]) // the machine dies either way
		return ErrCrashed
	case o.crash:
		c.durableLen += int(o.torn * float64(c.n-c.durableLen))
		return ErrCrashed
	case o.ioErr:
		return ErrIO
	case kind == opWrite:
		return c.put(p)
	case o.dropFsync:
		c.ackedLen = c.n
		c.lies++
		return nil
	}
	if err := c.st.flush(); err != nil {
		return err
	}
	c.durableLen, c.ackedLen = c.n, c.n
	return nil
}

// put appends p to the cache.
func (c *core) put(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if err := c.st.put(p); err != nil {
		return err
	}
	c.n += len(p)
	return nil
}

// DurableImage returns a copy of the bytes that actually survived: the
// persisted prefix of the device's logical stream. This is what crash
// recovery decodes.
func (c *core) DurableImage() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.prefix(c.durableLen)
}

// AckedImage returns a copy of the bytes the device *claimed* were
// durable — DurableImage plus anything a dropped fsync lied about.
func (c *core) AckedImage() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.prefix(c.ackedLen)
}

// Lies returns how many fsyncs the device silently dropped.
func (c *core) Lies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lies
}

// WrittenLen returns the total bytes ever accepted into the cache.
func (c *core) WrittenLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
