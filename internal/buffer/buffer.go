// Package buffer implements the buffer pool: a fixed-capacity page cache
// with InnoDB's young/old midpoint LRU (§6.1 of the paper), backed by a
// simulated disk.
//
// MySQL splits its LRU list into a young and an old sublist; new pages
// enter at the midpoint (head of the old sublist, holding 3/8 of the
// pages) and are promoted to the head of the young sublist when
// re-accessed. Promotion ("make young") requires the buffer-pool mutex —
// buf_pool_mutex_enter — and when the working set exceeds ~5/8 of the
// pool this mutex becomes the second-largest source of latency variance
// TProfiler finds in MySQL (32.92% under the 2-WH configuration).
//
// The paper's fix, Lazy LRU Update (LLU), replaces the mutex with a spin
// lock bounded to ~0.01ms: a thread that cannot acquire it in time defers
// the promotion to a per-thread backlog that is drained by the next
// successful acquirer. This package implements both policies behind
// UpdatePolicy so the fig. 3 (left) comparison is a one-line switch.
//
// The pool is one instance with one LRU lock, the lock §6.1 studies.
// Its page-hash *hit* path is lock-free: buckets are singly-linked
// chains published with atomic pointers, readers pin frames with a CAS
// that loses to a concurrent eviction (pins are tombstoned at -1 before
// a frame leaves the hash), and only the miss/create/evict paths take
// the pool mutex. Hits therefore never queue behind the LRU critical
// section a miss holds, which is part of what fig. 3 (left) measures.
package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/disk"
	"vats/internal/latch"
	"vats/internal/obs"
)

// PageID names a page.
type PageID struct {
	Space uint32
	No    uint64
}

// String renders the page id.
func (p PageID) String() string { return fmt.Sprintf("%d/%d", p.Space, p.No) }

// UpdatePolicy selects how LRU promotions synchronize.
type UpdatePolicy int

const (
	// EagerLRU is the original MySQL behaviour: promotions block on the
	// buffer-pool mutex.
	EagerLRU UpdatePolicy = iota
	// LazyLRU is the paper's LLU: promotions spin briefly and defer to a
	// backlog on failure.
	LazyLRU
)

// String names the policy.
func (p UpdatePolicy) String() string {
	if p == LazyLRU {
		return "LazyLRU"
	}
	return "EagerLRU"
}

// Errors.
var (
	// ErrPageNotFound means the page was never created.
	ErrPageNotFound = errors.New("buffer: page not found")
	// ErrNoVictim means every page is pinned and nothing can be evicted.
	ErrNoVictim = errors.New("buffer: no evictable page")
	// ErrPageExists is returned by Create for an existing page.
	ErrPageExists = errors.New("buffer: page already exists")
)

const (
	// spinWait bounds LLU's spin: the paper's 0.01ms.
	spinWait = 10 * time.Microsecond
	// backlogLimit caps each handle's deferred-promotion backlog.
	backlogLimit = 64
)

// Config configures a Pool.
type Config struct {
	// Capacity is the number of page frames.
	Capacity int
	// PageSize is the page size in bytes (default 4096).
	PageSize int
	// Device backs page reads and dirty write-backs; nil means a
	// zero-latency device.
	Device disk.Device
	// Policy selects Eager vs Lazy LRU updates.
	Policy UpdatePolicy
	// CriticalCost adds busy work inside the LRU critical section
	// (promotion and eviction), modelling the multi-core list
	// maintenance and cache-line cost the paper's buf_pool_mutex_enter
	// study observed on an 8-core server. On a single-core simulation
	// host the raw list splice is nanoseconds, which would hide the
	// pathology entirely. Zero disables it.
	CriticalCost time.Duration
	// Obs receives live metrics (hit/miss/eviction counters, LRU-lock
	// hold-time histogram, labelled by LRU policy); nil collects
	// nothing.
	Obs *obs.Obs
}

// Stats reports pool activity.
type Stats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	WriteBacks   int64
	MakeYoungs   int64
	Deferred     int64 // promotions pushed to a backlog (LLU)
	Drained      int64 // backlog entries later applied
	DroppedDefer int64 // backlog entries dropped (full or evicted)
	// Mutex is the eager-mode buffer-pool mutex contention profile.
	Mutex latch.MutexStats
}

// pinTomb marks a frame claimed by eviction: once pins CAS from 0 to
// pinTomb the frame can never be pinned again, so lock-free readers that
// raced the evictor fail their pin and retry through the miss path.
const pinTomb = -1

type frame struct {
	id   PageID
	data []byte

	// hashNext chains frames in a page-hash bucket. Written only under
	// the pool mutex; read lock-free by the hit path.
	hashNext atomic.Pointer[frame]

	// pins counts references. 0 = unpinned, >0 = pinned, pinTomb =
	// evicted. Readers pin with a CAS loop (tryPin); eviction claims a
	// frame with CAS(0, pinTomb).
	pins      atomic.Int32
	dirty     atomic.Bool
	ioPending atomic.Bool // set under the pool mutex; cleared with Broadcast

	// pageMu guards the page contents for writers (the storage layer's
	// page latch).
	pageMu sync.Mutex

	// LRU fields, guarded by the LRU lock; inOld and moveGen are atomics
	// so the hit fast path can read them without the lock.
	prev, next *frame
	inList     bool
	inOld      atomic.Bool
	moveGen    atomic.Uint64
}

// tryPin pins the frame unless eviction already claimed it.
func (f *frame) tryPin() bool {
	for {
		pc := f.pins.Load()
		if pc < 0 {
			return false
		}
		if f.pins.CompareAndSwap(pc, pc+1) {
			return true
		}
	}
}

// Frame is a pinned page handle returned by Fetch/Create. It is a small
// value (no allocation per fetch). Call Release when done; use
// WithPageLock (or Latch/Unlatch) around mutations.
type Frame struct {
	f *frame
}

// ID returns the page id.
func (fr Frame) ID() PageID { return fr.f.id }

// Data returns the page contents. Readers may access it while pinned;
// writers must hold the page lock (WithPageLock) and call MarkDirty.
func (fr Frame) Data() []byte { return fr.f.data }

// MarkDirty flags the page for write-back on eviction.
func (fr Frame) MarkDirty() { fr.f.dirty.Store(true) }

// WithPageLock runs fn with the per-page latch held.
func (fr Frame) WithPageLock(fn func()) {
	fr.f.pageMu.Lock()
	defer fr.f.pageMu.Unlock()
	fn()
}

// Latch acquires the per-page latch without a closure; pair with
// Unlatch. The read hot path uses it to stay allocation-free.
func (fr Frame) Latch() { fr.f.pageMu.Lock() }

// Unlatch releases the per-page latch.
func (fr Frame) Unlatch() { fr.f.pageMu.Unlock() }

// Release unpins the page.
func (fr Frame) Release() {
	if fr.f.pins.Add(-1) < 0 {
		panic("buffer: unpin of unpinned page")
	}
}

// Pool is the buffer pool: a page hash, a young/old LRU list, a backing
// store, and the locks that guard them.
type Pool struct {
	cfg Config
	met *obs.BufferMetrics

	// Page hash. Readers traverse bucket chains lock-free; all writes
	// to the chains happen under mu.
	buckets    []atomic.Pointer[frame]
	bucketMask uint64

	mu       sync.Mutex // guards hash membership, ioPending transitions
	ioCond   *sync.Cond
	resident int // frames in the hash, guarded by mu

	// Backing store: page images "on disk".
	storeMu sync.Mutex
	store   map[PageID][]byte

	// The buffer-pool "mutex" guarding the LRU list, in one of two
	// flavours depending on the policy.
	lruEager latch.CountingMutex
	lruLazy  latch.SpinLock

	// LRU list state, guarded by the LRU lock.
	head, tail *frame
	oldHead    *frame
	total      int
	oldCount   int

	gen atomic.Uint64

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	writeBacks atomic.Int64
	makeYoungs atomic.Int64
	deferred   atomic.Int64
	drained    atomic.Int64
	dropped    atomic.Int64
}

// hashPageID mixes a PageID into a well-spread 64-bit hash
// (splitmix64-style finalizer).
func hashPageID(id PageID) uint64 {
	h := id.No*0x9E3779B97F4A7C15 ^ uint64(id.Space)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// NewPool builds a pool from cfg.
func NewPool(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	nb := 8
	for nb < 2*cfg.Capacity {
		nb <<= 1
	}
	p := &Pool{
		cfg:        cfg,
		met:        obs.NewBufferMetrics(cfg.Obs, cfg.Policy.String()),
		buckets:    make([]atomic.Pointer[frame], nb),
		bucketMask: uint64(nb - 1),
		store:      make(map[PageID][]byte),
	}
	p.ioCond = sync.NewCond(&p.mu)
	return p
}

// bucketOf returns id's page-hash bucket index.
func (p *Pool) bucketOf(id PageID) uint64 { return hashPageID(id) & p.bucketMask }

// Capacity returns the frame capacity.
func (p *Pool) Capacity() int { return p.cfg.Capacity }

// PageSize returns the page size in bytes.
func (p *Pool) PageSize() int { return p.cfg.PageSize }

// Handle is a per-worker accessor holding the LLU deferred-promotion
// backlog. Handles are not safe for concurrent use; give each goroutine
// its own (the paper's backlog is thread-local).
type Handle struct {
	pool    *Pool
	backlog []*frame

	// Wait accounting for the caller's profiler: time spent waiting on
	// the buffer-pool (LRU) lock and on device I/O since TakeWaits.
	// Hit-path promotion waits are only timed when trackWaits is set,
	// keeping timer syscalls off the hot path for profiler-less callers.
	trackWaits bool
	lruWait    time.Duration
	ioWait     time.Duration
}

// SetWaitTracking enables hit-path LRU wait timing for this handle. The
// engine turns it on for each transaction it captures (a profiler or
// obs's sampler wants buf_pool_mutex_enter attribution); without it the
// hit path skips the clock reads.
func (h *Handle) SetWaitTracking(on bool) { h.trackWaits = on }

// TakeWaits returns and resets the LRU-lock and device-I/O wait time
// accumulated by this handle's operations. The engine records these as
// the buf_pool_mutex_enter and fil_flush-style profiler leaves.
func (h *Handle) TakeWaits() (lru, io time.Duration) {
	lru, io = h.lruWait, h.ioWait
	h.lruWait, h.ioWait = 0, 0
	return lru, io
}

// NewHandle returns a worker-local handle.
func (p *Pool) NewHandle() *Handle { return &Handle{pool: p} }

// lruLock / lruUnlock wrap whichever primitive the policy uses for
// unconditional acquisition (miss path, eviction).
func (p *Pool) lruLock() {
	if p.cfg.Policy == LazyLRU {
		p.lruLazy.Lock()
	} else {
		p.lruEager.Lock()
	}
}

func (p *Pool) lruUnlock() {
	if p.cfg.Policy == LazyLRU {
		p.lruLazy.Unlock()
	} else {
		p.lruEager.Unlock()
	}
}

// lookupLocked finds id in the page hash. Caller holds p.mu.
func (p *Pool) lookupLocked(bucket uint64, id PageID) *frame {
	for f := p.buckets[bucket].Load(); f != nil; f = f.hashNext.Load() {
		if f.id == id {
			return f
		}
	}
	return nil
}

// hashInsertLocked publishes f at the head of its bucket chain. Caller
// holds p.mu.
func (p *Pool) hashInsertLocked(bucket uint64, f *frame) {
	b := &p.buckets[bucket]
	f.hashNext.Store(b.Load())
	b.Store(f)
	p.resident++
}

// hashRemoveLocked unlinks f from its bucket chain. Caller holds p.mu.
// f's own hashNext is left intact so a lock-free reader standing on f
// can finish its traversal.
func (p *Pool) hashRemoveLocked(bucket uint64, f *frame) {
	b := &p.buckets[bucket]
	var prev *frame
	for cur := b.Load(); cur != nil; cur = cur.hashNext.Load() {
		if cur == f {
			next := f.hashNext.Load()
			if prev == nil {
				b.Store(next)
			} else {
				prev.hashNext.Store(next)
			}
			p.resident--
			return
		}
		prev = cur
	}
}

// Create allocates a new zeroed page, evicting if necessary. The page is
// returned pinned and dirty.
func (p *Pool) Create(id PageID) (Frame, error) {
	bucket := p.bucketOf(id)
	p.storeMu.Lock()
	if _, ok := p.store[id]; ok {
		p.storeMu.Unlock()
		return Frame{}, ErrPageExists
	}
	p.store[id] = nil // reserve; image written on eviction
	p.storeMu.Unlock()

	p.mu.Lock()
	if p.lookupLocked(bucket, id) != nil {
		p.mu.Unlock()
		return Frame{}, ErrPageExists
	}
	f, victim, err := p.installLocked(bucket, id)
	if err != nil {
		p.mu.Unlock()
		p.storeMu.Lock()
		delete(p.store, id) // release the reservation
		p.storeMu.Unlock()
		return Frame{}, err
	}
	f.ioPending.Store(false) // no read needed for a fresh page
	f.dirty.Store(true)
	p.mu.Unlock()
	p.ioCond.Broadcast()

	p.writeBackVictim(victim)
	return Frame{f}, nil
}

// Fetch pins page id, reading it from the backing store on a miss. The
// Handle's policy applies LRU promotion on hits. The hit path is
// lock-free: a bucket-chain probe plus a pin CAS. A miss on a pool
// whose frames are all pinned fails at once with ErrNoVictim rather
// than waiting for a pin to drop; the server answers that with
// StatusErr.
func (h *Handle) Fetch(id PageID) (Frame, error) {
	p := h.pool
	bucket := p.bucketOf(id)
	for f := p.buckets[bucket].Load(); f != nil; f = f.hashNext.Load() {
		if f.id != id {
			continue
		}
		if !f.tryPin() {
			break // lost to a concurrent eviction; resolve under the lock
		}
		if f.ioPending.Load() {
			p.mu.Lock()
			for f.ioPending.Load() {
				p.ioCond.Wait()
			}
			p.mu.Unlock()
		}
		p.hits.Add(1)
		p.met.Hit()
		h.touch(f)
		return Frame{f}, nil
	}
	return h.fetchSlow(bucket, id)
}

// fetchSlow resolves a probe miss under the pool mutex: either the page
// appeared concurrently (hit after all) or it must be read from the
// backing store into a fresh frame.
func (h *Handle) fetchSlow(bucket uint64, id PageID) (Frame, error) {
	p := h.pool
	p.mu.Lock()
	if f := p.lookupLocked(bucket, id); f != nil {
		// Frames in the hash can't be tombstoned while we hold p.mu, so
		// the pin only races other pinners and must eventually land.
		if !f.tryPin() {
			panic("buffer: evicted frame still in page hash")
		}
		for f.ioPending.Load() {
			p.ioCond.Wait()
		}
		p.mu.Unlock()
		p.hits.Add(1)
		p.met.Hit()
		h.touch(f)
		return Frame{f}, nil
	}

	// Miss.
	p.storeMu.Lock()
	img, ok := p.store[id]
	p.storeMu.Unlock()
	if !ok {
		p.mu.Unlock()
		return Frame{}, ErrPageNotFound
	}
	lruStart := time.Now()
	f, victim, err := p.installLocked(bucket, id)
	if err != nil {
		p.mu.Unlock()
		return Frame{}, err
	}
	h.lruWait += time.Since(lruStart)
	p.mu.Unlock()
	p.misses.Add(1)
	p.met.Miss()

	ioStart := time.Now()
	p.writeBackVictim(victim)
	if p.cfg.Device != nil {
		p.cfg.Device.ReadBlock()
	}
	h.ioWait += time.Since(ioStart)
	copy(f.data, img)

	p.mu.Lock()
	f.ioPending.Store(false)
	p.mu.Unlock()
	p.ioCond.Broadcast()
	return Frame{f}, nil
}

// installLocked allocates a pinned, io-pending frame for id at the LRU
// midpoint, evicting a victim if the pool is full. Caller holds p.mu.
// The returned victim (possibly nil) must be passed to writeBackVictim
// after releasing p.mu.
func (p *Pool) installLocked(bucket uint64, id PageID) (*frame, *frame, error) {
	var victim *frame
	p.lruLock()
	var holdStart time.Time
	if p.met.HoldEnabled() {
		holdStart = time.Now()
	}
	if p.total >= p.cfg.Capacity {
		victim = p.claimVictimLocked()
		if victim == nil {
			p.lruUnlock()
			return nil, nil, ErrNoVictim
		}
		p.spinCost()
		p.unlinkLocked(victim)
		p.hashRemoveLocked(p.bucketOf(victim.id), victim)
		p.evictions.Add(1)
		p.met.Evicted()
		if victim.dirty.Load() {
			// Publish the image to the backing store *before* the page
			// leaves the hash, so a concurrent re-fetch cannot read a
			// stale image. The device latency is paid by the evicting
			// thread afterwards (writeBackVictim).
			img := make([]byte, len(victim.data))
			victim.pageMu.Lock()
			copy(img, victim.data)
			victim.pageMu.Unlock()
			p.storeMu.Lock()
			p.store[victim.id] = img
			p.storeMu.Unlock()
		}
	}
	f := &frame{id: id, data: make([]byte, p.cfg.PageSize)}
	f.ioPending.Store(true)
	f.pins.Store(1)
	p.insertAtMidpointLocked(f)
	if !holdStart.IsZero() {
		p.met.Held(time.Since(holdStart))
	}
	p.lruUnlock()
	p.hashInsertLocked(bucket, f)
	return f, victim, nil
}

// writeBackVictim charges the evicting thread the device write for a
// dirty victim. The image itself was already published to the backing
// store under the pool mutex (see installLocked).
func (p *Pool) writeBackVictim(victim *frame) {
	if victim == nil || !victim.dirty.Load() {
		return
	}
	if p.cfg.Device != nil {
		p.cfg.Device.WriteBlock()
	}
	p.writeBacks.Add(1)
	p.met.WroteBack()
}

// touch applies the LRU promotion policy to a hit frame.
func (h *Handle) touch(f *frame) {
	p := h.pool
	// Fast path: recently-promoted young pages are not reordered (the
	// "MySQL does not maintain precise LRU ordering within the young
	// list" rule), so a well-sized pool rarely touches the LRU lock.
	if !f.inOld.Load() {
		skip := uint64(p.cfg.Capacity / 4)
		if p.gen.Load()-f.moveGen.Load() <= skip {
			return
		}
	}
	if p.cfg.Policy == EagerLRU {
		var start time.Time
		if h.trackWaits {
			start = time.Now()
		}
		p.lruEager.Lock()
		var acq time.Time
		if h.trackWaits || p.met.HoldEnabled() {
			acq = time.Now()
		}
		if h.trackWaits {
			h.lruWait += acq.Sub(start)
		}
		p.makeYoungLocked(f)
		if p.met.HoldEnabled() && !acq.IsZero() {
			p.met.Held(time.Since(acq))
		}
		p.lruEager.Unlock()
		return
	}
	// LLU: bounded spin; defer on failure.
	var start time.Time
	if h.trackWaits {
		start = time.Now()
	}
	acquired := p.lruLazy.TryLockFor(spinWait)
	if h.trackWaits {
		h.lruWait += time.Since(start)
	}
	if acquired {
		var acq time.Time
		if p.met.HoldEnabled() {
			acq = time.Now()
		}
		h.drainBacklogLocked()
		p.makeYoungLocked(f)
		if !acq.IsZero() {
			p.met.Held(time.Since(acq))
		}
		p.lruLazy.Unlock()
		return
	}
	p.deferred.Add(1)
	p.met.Deferred()
	if len(h.backlog) >= backlogLimit {
		p.dropped.Add(1)
		copy(h.backlog, h.backlog[1:])
		h.backlog = h.backlog[:len(h.backlog)-1]
	}
	h.backlog = append(h.backlog, f)
}

// drainBacklogLocked applies the handle's deferred promotions; caller
// holds the lazy LRU lock.
func (h *Handle) drainBacklogLocked() {
	p := h.pool
	// The batch pays the critical-section cost once: deferred
	// promotions are applied together with good locality, which is the
	// point of batching them.
	charged := false
	for _, f := range h.backlog {
		if f.inList { // "after confirming they have not been evicted"
			p.makeYoungCosted(f, !charged)
			charged = true
			p.drained.Add(1)
		} else {
			p.dropped.Add(1)
		}
	}
	h.backlog = h.backlog[:0]
}

// --- LRU list internals. All guarded by the LRU lock. ---

// spinCost charges the configured critical-section cost while a lock is
// held. The cost is charged as wall time (sleep): on a single-CPU
// simulation host a busy-wait holder would never be preempted, so no
// contention could form; sleeping keeps the lock held while other
// workers genuinely queue on it, as they do on the paper's 8-core
// server.
func (p *Pool) spinCost() {
	if p.cfg.CriticalCost <= 0 {
		return
	}
	time.Sleep(p.cfg.CriticalCost)
}

func (p *Pool) makeYoungLocked(f *frame) {
	p.makeYoungCosted(f, true)
}

func (p *Pool) makeYoungCosted(f *frame, charge bool) {
	if !f.inList {
		return
	}
	if charge {
		p.spinCost()
	}
	p.unlinkLocked(f)
	// Insert at head of young list.
	f.prev = nil
	f.next = p.head
	if p.head != nil {
		p.head.prev = f
	}
	p.head = f
	if p.tail == nil {
		p.tail = f
	}
	f.inList = true
	f.inOld.Store(false)
	p.total++
	f.moveGen.Store(p.gen.Add(1))
	p.makeYoungs.Add(1)
	p.rebalanceLocked()
}

// insertAtMidpointLocked puts f at the head of the old sublist.
func (p *Pool) insertAtMidpointLocked(f *frame) {
	if p.oldHead == nil {
		// Old list empty: append at tail.
		f.prev = p.tail
		f.next = nil
		if p.tail != nil {
			p.tail.next = f
		}
		p.tail = f
		if p.head == nil {
			p.head = f
		}
	} else {
		f.prev = p.oldHead.prev
		f.next = p.oldHead
		if p.oldHead.prev != nil {
			p.oldHead.prev.next = f
		} else {
			p.head = f
		}
		p.oldHead.prev = f
	}
	p.oldHead = f
	f.inList = true
	f.inOld.Store(true)
	f.moveGen.Store(p.gen.Load())
	p.total++
	p.oldCount++
	p.rebalanceLocked()
}

func (p *Pool) unlinkLocked(f *frame) {
	if !f.inList {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.tail = f.prev
	}
	if p.oldHead == f {
		p.oldHead = f.next // next toward tail stays old (or nil)
	}
	if f.inOld.Load() {
		p.oldCount--
	}
	p.total--
	f.inList = false
	f.prev, f.next = nil, nil
}

// rebalanceLocked keeps oldCount ≈ 3/8 of total (InnoDB's
// innodb_old_blocks_pct=37) by moving the young/old boundary.
func (p *Pool) rebalanceLocked() {
	target := p.total * 3 / 8
	for p.oldCount < target {
		// Grow old: the youngest-list tail page becomes old.
		var cand *frame
		if p.oldHead != nil {
			cand = p.oldHead.prev
		} else {
			cand = p.tail
		}
		if cand == nil || cand.inOld.Load() {
			break
		}
		cand.inOld.Store(true)
		p.oldHead = cand
		p.oldCount++
	}
	for p.oldCount > target+1 && p.oldHead != nil {
		// Shrink old: promote the old head to young.
		f := p.oldHead
		f.inOld.Store(false)
		p.oldHead = f.next
		p.oldCount--
	}
}

// claimVictimLocked scans from the tail (the coldest old page) for an
// unpinned, io-complete frame and claims it with a pin tombstone so no
// lock-free reader can pin it afterwards.
func (p *Pool) claimVictimLocked() *frame {
	for f := p.tail; f != nil; f = f.prev {
		if f.ioPending.Load() {
			continue
		}
		if f.pins.CompareAndSwap(0, pinTomb) {
			return f
		}
	}
	return nil
}

// Resident returns the number of pages currently in the pool.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.resident
}

// oldLen returns the old-sublist length (for invariant tests).
func (p *Pool) oldLen() int {
	p.lruLock()
	defer p.lruUnlock()
	return p.oldCount
}

// listLen walks the LRU list under the LRU lock (for invariant tests).
func (p *Pool) listLen() int {
	p.lruLock()
	defer p.lruUnlock()
	n := 0
	for f := p.head; f != nil; f = f.next {
		n++
	}
	return n
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:         p.hits.Load(),
		Misses:       p.misses.Load(),
		Evictions:    p.evictions.Load(),
		WriteBacks:   p.writeBacks.Load(),
		MakeYoungs:   p.makeYoungs.Load(),
		Deferred:     p.deferred.Load(),
		Drained:      p.drained.Load(),
		DroppedDefer: p.dropped.Load(),
		Mutex:        p.lruEager.Stats(),
	}
}
