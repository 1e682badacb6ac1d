// Package buffer implements the buffer pool: a fixed-capacity page cache
// with InnoDB's young/old midpoint LRU (§6.1 of the paper), backed by a
// simulated disk.
//
// MySQL splits its LRU list into a young and an old sublist; new pages
// enter at the midpoint (head of the old sublist, by default holding 3/8
// of the pages) and are promoted to the head of the young sublist when
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
// Independent of the LRU policy, the pool is partitioned into
// Config.Shards instances (MySQL's innodb_buffer_pool_instances): each
// shard owns a slice of the page hash, its own LRU lists, its own
// capacity budget, and its own locks, so traffic to different pages
// rarely meets on a shared line. Within a shard, the page-hash *hit*
// path is lock-free: buckets are singly-linked chains published with
// atomic pointers, readers pin frames with a CAS that loses to a
// concurrent eviction (pins are tombstoned at -1 before a frame leaves
// the hash), and only the miss/create/evict paths take the shard mutex.
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

// Config configures a Pool.
type Config struct {
	// Capacity is the number of page frames, summed over all shards.
	Capacity int
	// Shards is the number of buffer-pool instances the capacity is
	// split across (MySQL's innodb_buffer_pool_instances). Rounded up
	// to a power of two; 0 or 1 means a single instance, which keeps
	// the §6.1 single-mutex contention semantics the shape experiments
	// rely on. Shard counts that would leave a shard without a frame
	// are clamped down.
	Shards int
	// PageSize is the page size in bytes (default 4096).
	PageSize int
	// Device backs page reads and dirty write-backs; nil means a
	// zero-latency device.
	Device disk.Device
	// Policy selects Eager vs Lazy LRU updates.
	Policy UpdatePolicy
	// SpinWait bounds LLU's spin (default 10µs, the paper's 0.01ms).
	SpinWait time.Duration
	// OldFraction is the old sublist share (default 3/8, InnoDB's
	// innodb_old_blocks_pct=37).
	OldFraction float64
	// BacklogLimit caps each handle's deferred-promotion backlog
	// (default 64).
	BacklogLimit int
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

// Stats reports pool activity, merged across shards.
type Stats struct {
	Hits         int64
	Misses       int64
	Evictions    int64
	WriteBacks   int64
	MakeYoungs   int64
	Deferred     int64 // promotions pushed to a backlog (LLU)
	Drained      int64 // backlog entries later applied
	DroppedDefer int64 // backlog entries dropped (full or evicted)
	// Mutex is the eager-mode buffer-pool mutex contention profile,
	// summed over shards (MaxWait is the max across shards).
	Mutex latch.MutexStats
}

// pinTomb marks a frame claimed by eviction: once pins CAS from 0 to
// pinTomb the frame can never be pinned again, so lock-free readers that
// raced the evictor fail their pin and retry through the miss path.
const pinTomb = -1

type frame struct {
	id    PageID
	data  []byte
	shard *shard

	// hashNext chains frames in a page-hash bucket. Written only under
	// the shard mutex; read lock-free by the hit path.
	hashNext atomic.Pointer[frame]

	// pins counts references. 0 = unpinned, >0 = pinned, pinTomb =
	// evicted. Readers pin with a CAS loop (tryPin); eviction claims a
	// frame with CAS(0, pinTomb).
	pins      atomic.Int32
	dirty     atomic.Bool
	ioPending atomic.Bool // set under the shard mutex; cleared with Broadcast

	// pageMu guards the page contents for writers (the storage layer's
	// page latch).
	pageMu sync.Mutex

	// LRU fields, guarded by the shard's LRU lock; inOld and moveGen are
	// atomics so the hit fast path can read them without the lock.
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

// shard is one buffer-pool instance: a slice of the page hash with its
// own LRU lists, capacity budget, backing store, and locks.
type shard struct {
	pool     *Pool
	capacity int

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

// Pool is the buffer pool: Config.Shards independent instances behind
// one façade.
type Pool struct {
	cfg       Config
	dev       disk.Device
	met       *obs.BufferMetrics
	shards    []*shard
	shardMask uint64
}

// shardHashBits is how many low hash bits select the shard; bucket
// selection uses the bits above so the two choices stay independent.
const shardHashBits = 12

// hashPageID mixes a PageID into a well-spread 64-bit hash
// (splitmix64-style finalizer).
func hashPageID(id PageID) uint64 {
	h := id.No*0x9E3779B97F4A7C15 ^ uint64(id.Space)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewPool builds a pool from cfg.
func NewPool(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.SpinWait <= 0 {
		cfg.SpinWait = 10 * time.Microsecond
	}
	if cfg.OldFraction <= 0 || cfg.OldFraction >= 1 {
		cfg.OldFraction = 3.0 / 8.0
	}
	if cfg.BacklogLimit <= 0 {
		cfg.BacklogLimit = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	cfg.Shards = nextPow2(cfg.Shards)
	if max := 1 << shardHashBits; cfg.Shards > max {
		cfg.Shards = max
	}
	for cfg.Shards > 1 && cfg.Capacity/cfg.Shards < 1 {
		cfg.Shards >>= 1
	}
	p := &Pool{
		cfg:       cfg,
		dev:       cfg.Device,
		met:       obs.NewBufferMetrics(cfg.Obs, cfg.Policy.String()),
		shards:    make([]*shard, cfg.Shards),
		shardMask: uint64(cfg.Shards - 1),
	}
	base, extra := cfg.Capacity/cfg.Shards, cfg.Capacity%cfg.Shards
	for i := range p.shards {
		capi := base
		if i < extra {
			capi++
		}
		nb := nextPow2(2 * capi)
		if nb < 8 {
			nb = 8
		}
		s := &shard{
			pool:       p,
			capacity:   capi,
			buckets:    make([]atomic.Pointer[frame], nb),
			bucketMask: uint64(nb - 1),
			store:      make(map[PageID][]byte),
		}
		s.ioCond = sync.NewCond(&s.mu)
		p.shards[i] = s
	}
	return p
}

// shardFor routes a page to its shard and bucket index.
func (p *Pool) shardFor(id PageID) (*shard, uint64) {
	h := hashPageID(id)
	s := p.shards[h&p.shardMask]
	return s, (h >> shardHashBits) & s.bucketMask
}

// Capacity returns the frame capacity summed over shards.
func (p *Pool) Capacity() int { return p.cfg.Capacity }

// Shards returns the number of buffer-pool instances.
func (p *Pool) Shards() int { return len(p.shards) }

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
// engine turns it on when a profiler wants buf_pool_mutex_enter
// attribution; without it the hit path skips the clock reads.
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
func (s *shard) lruLock() {
	if s.pool.cfg.Policy == LazyLRU {
		s.lruLazy.Lock()
	} else {
		s.lruEager.Lock()
	}
}

func (s *shard) lruUnlock() {
	if s.pool.cfg.Policy == LazyLRU {
		s.lruLazy.Unlock()
	} else {
		s.lruEager.Unlock()
	}
}

// lookupLocked finds id in the shard's page hash. Caller holds s.mu.
func (s *shard) lookupLocked(bucket uint64, id PageID) *frame {
	for f := s.buckets[bucket].Load(); f != nil; f = f.hashNext.Load() {
		if f.id == id {
			return f
		}
	}
	return nil
}

// hashInsertLocked publishes f at the head of its bucket chain. Caller
// holds s.mu.
func (s *shard) hashInsertLocked(bucket uint64, f *frame) {
	b := &s.buckets[bucket]
	f.hashNext.Store(b.Load())
	b.Store(f)
	s.resident++
}

// hashRemoveLocked unlinks f from its bucket chain. Caller holds s.mu.
// f's own hashNext is left intact so a lock-free reader standing on f
// can finish its traversal.
func (s *shard) hashRemoveLocked(bucket uint64, f *frame) {
	b := &s.buckets[bucket]
	var prev *frame
	for cur := b.Load(); cur != nil; cur = cur.hashNext.Load() {
		if cur == f {
			next := f.hashNext.Load()
			if prev == nil {
				b.Store(next)
			} else {
				prev.hashNext.Store(next)
			}
			s.resident--
			return
		}
		prev = cur
	}
}

// Create allocates a new zeroed page, evicting if necessary. The page is
// returned pinned and dirty.
func (p *Pool) Create(id PageID) (Frame, error) {
	s, bucket := p.shardFor(id)
	s.storeMu.Lock()
	if _, ok := s.store[id]; ok {
		s.storeMu.Unlock()
		return Frame{}, ErrPageExists
	}
	s.store[id] = nil // reserve; image written on eviction/flush
	s.storeMu.Unlock()

	s.mu.Lock()
	if s.lookupLocked(bucket, id) != nil {
		s.mu.Unlock()
		return Frame{}, ErrPageExists
	}
	f, victim, err := s.installLocked(bucket, id)
	if err != nil {
		s.mu.Unlock()
		s.storeMu.Lock()
		delete(s.store, id) // release the reservation
		s.storeMu.Unlock()
		return Frame{}, err
	}
	f.ioPending.Store(false) // no read needed for a fresh page
	f.dirty.Store(true)
	s.mu.Unlock()
	s.ioCond.Broadcast()

	s.writeBackVictim(victim)
	return Frame{f}, nil
}

// Fetch pins page id, reading it from the backing store on a miss. The
// Handle's policy applies LRU promotion on hits. The hit path is
// lock-free: a bucket-chain probe plus a pin CAS. A miss on a shard
// whose frames are all pinned fails at once with ErrNoVictim rather
// than waiting for a pin to drop; the server answers that with
// StatusErr.
func (h *Handle) Fetch(id PageID) (Frame, error) {
	p := h.pool
	hash := hashPageID(id)
	s := p.shards[hash&p.shardMask]
	bucket := (hash >> shardHashBits) & s.bucketMask
	for f := s.buckets[bucket].Load(); f != nil; f = f.hashNext.Load() {
		if f.id != id {
			continue
		}
		if !f.tryPin() {
			break // lost to a concurrent eviction; resolve under the lock
		}
		if f.ioPending.Load() {
			s.mu.Lock()
			for f.ioPending.Load() {
				s.ioCond.Wait()
			}
			s.mu.Unlock()
		}
		s.hits.Add(1)
		p.met.Hit()
		h.touch(f)
		return Frame{f}, nil
	}
	return h.fetchSlow(s, bucket, id)
}

// fetchSlow resolves a probe miss under the shard mutex: either the page
// appeared concurrently (hit after all) or it must be read from the
// backing store into a fresh frame.
func (h *Handle) fetchSlow(s *shard, bucket uint64, id PageID) (Frame, error) {
	p := h.pool
	s.mu.Lock()
	if f := s.lookupLocked(bucket, id); f != nil {
		// Frames in the hash can't be tombstoned while we hold s.mu, so
		// the pin only races other pinners and must eventually land.
		if !f.tryPin() {
			panic("buffer: evicted frame still in page hash")
		}
		for f.ioPending.Load() {
			s.ioCond.Wait()
		}
		s.mu.Unlock()
		s.hits.Add(1)
		p.met.Hit()
		h.touch(f)
		return Frame{f}, nil
	}

	// Miss.
	s.storeMu.Lock()
	img, ok := s.store[id]
	s.storeMu.Unlock()
	if !ok {
		s.mu.Unlock()
		return Frame{}, ErrPageNotFound
	}
	lruStart := time.Now()
	f, victim, err := s.installLocked(bucket, id)
	if err != nil {
		s.mu.Unlock()
		return Frame{}, err
	}
	h.lruWait += time.Since(lruStart)
	s.mu.Unlock()
	s.misses.Add(1)
	p.met.Miss()

	ioStart := time.Now()
	s.writeBackVictim(victim)
	if p.dev != nil {
		p.dev.ReadBlock()
	}
	h.ioWait += time.Since(ioStart)
	copy(f.data, img)

	s.mu.Lock()
	f.ioPending.Store(false)
	s.mu.Unlock()
	s.ioCond.Broadcast()
	return Frame{f}, nil
}

// installLocked allocates a pinned, io-pending frame for id at the LRU
// midpoint, evicting a victim if the shard is full. Caller holds s.mu.
// The returned victim (possibly nil) must be passed to writeBackVictim
// after releasing s.mu.
func (s *shard) installLocked(bucket uint64, id PageID) (*frame, *frame, error) {
	var victim *frame
	s.lruLock()
	var holdStart time.Time
	if s.pool.met.HoldEnabled() {
		holdStart = time.Now()
	}
	if s.total >= s.capacity {
		victim = s.claimVictimLocked()
		if victim == nil {
			s.lruUnlock()
			return nil, nil, ErrNoVictim
		}
		s.spinCost()
		s.unlinkLocked(victim)
		s.hashRemoveLocked((hashPageID(victim.id)>>shardHashBits)&s.bucketMask, victim)
		s.evictions.Add(1)
		s.pool.met.Evicted()
		if victim.dirty.Load() {
			// Publish the image to the backing store *before* the page
			// leaves the hash, so a concurrent re-fetch cannot read a
			// stale image. The device latency is paid by the evicting
			// thread afterwards (writeBackVictim).
			img := make([]byte, len(victim.data))
			victim.pageMu.Lock()
			copy(img, victim.data)
			victim.pageMu.Unlock()
			s.storeMu.Lock()
			s.store[victim.id] = img
			s.storeMu.Unlock()
		}
	}
	f := &frame{id: id, data: make([]byte, s.pool.cfg.PageSize), shard: s}
	f.ioPending.Store(true)
	f.pins.Store(1)
	s.insertAtMidpointLocked(f)
	if !holdStart.IsZero() {
		s.pool.met.Held(time.Since(holdStart))
	}
	s.lruUnlock()
	s.hashInsertLocked(bucket, f)
	return f, victim, nil
}

// writeBackVictim charges the evicting thread the device write for a
// dirty victim. The image itself was already published to the backing
// store under the shard lock (see installLocked).
func (s *shard) writeBackVictim(victim *frame) {
	if victim == nil || !victim.dirty.Load() {
		return
	}
	if s.pool.dev != nil {
		s.pool.dev.WriteBlock()
	}
	s.writeBacks.Add(1)
	s.pool.met.WroteBack()
}

// touch applies the LRU promotion policy to a hit frame.
func (h *Handle) touch(f *frame) {
	s := f.shard
	// Fast path: recently-promoted young pages are not reordered (the
	// "MySQL does not maintain precise LRU ordering within the young
	// list" rule), so a well-sized shard rarely touches the LRU lock.
	if !f.inOld.Load() {
		skip := uint64(s.capacity / 4)
		if s.gen.Load()-f.moveGen.Load() <= skip {
			return
		}
	}
	p := s.pool
	if p.cfg.Policy == EagerLRU {
		var start time.Time
		if h.trackWaits {
			start = time.Now()
		}
		s.lruEager.Lock()
		var acq time.Time
		if h.trackWaits || p.met.HoldEnabled() {
			acq = time.Now()
		}
		if h.trackWaits {
			h.lruWait += acq.Sub(start)
		}
		s.makeYoungLocked(f)
		if p.met.HoldEnabled() && !acq.IsZero() {
			p.met.Held(time.Since(acq))
		}
		s.lruEager.Unlock()
		return
	}
	// LLU: bounded spin; defer on failure.
	var start time.Time
	if h.trackWaits {
		start = time.Now()
	}
	acquired := s.lruLazy.TryLockFor(p.cfg.SpinWait)
	if h.trackWaits {
		h.lruWait += time.Since(start)
	}
	if acquired {
		var acq time.Time
		if p.met.HoldEnabled() {
			acq = time.Now()
		}
		h.drainBacklogLocked(s)
		s.makeYoungLocked(f)
		if !acq.IsZero() {
			p.met.Held(time.Since(acq))
		}
		s.lruLazy.Unlock()
		return
	}
	s.deferred.Add(1)
	p.met.Deferred()
	if len(h.backlog) >= p.cfg.BacklogLimit {
		s.dropped.Add(1)
		copy(h.backlog, h.backlog[1:])
		h.backlog = h.backlog[:len(h.backlog)-1]
	}
	h.backlog = append(h.backlog, f)
}

// drainBacklogLocked applies deferred promotions belonging to shard s;
// caller holds s's lazy LRU lock. Entries for other shards stay queued
// until one of their promotions takes that shard's lock.
func (h *Handle) drainBacklogLocked(s *shard) {
	// The batch pays the critical-section cost once: deferred
	// promotions are applied together with good locality, which is the
	// point of batching them.
	charged := false
	kept := h.backlog[:0]
	for _, f := range h.backlog {
		if f.shard != s {
			kept = append(kept, f)
			continue
		}
		if f.inList { // "after confirming they have not been evicted"
			s.makeYoungCosted(f, !charged)
			charged = true
			s.drained.Add(1)
		} else {
			s.dropped.Add(1)
		}
	}
	h.backlog = kept
}

// --- LRU list internals. All guarded by the shard's LRU lock. ---

// spinCost charges the configured critical-section cost while a lock is
// held. The cost is charged as wall time (sleep): on a single-CPU
// simulation host a busy-wait holder would never be preempted, so no
// contention could form; sleeping keeps the lock held while other
// workers genuinely queue on it, as they do on the paper's 8-core
// server.
func (s *shard) spinCost() {
	if s.pool.cfg.CriticalCost <= 0 {
		return
	}
	time.Sleep(s.pool.cfg.CriticalCost)
}

func (s *shard) makeYoungLocked(f *frame) {
	s.makeYoungCosted(f, true)
}

func (s *shard) makeYoungCosted(f *frame, charge bool) {
	if !f.inList {
		return
	}
	if charge {
		s.spinCost()
	}
	s.unlinkLocked(f)
	// Insert at head of young list.
	f.prev = nil
	f.next = s.head
	if s.head != nil {
		s.head.prev = f
	}
	s.head = f
	if s.tail == nil {
		s.tail = f
	}
	f.inList = true
	f.inOld.Store(false)
	s.total++
	f.moveGen.Store(s.gen.Add(1))
	s.makeYoungs.Add(1)
	s.rebalanceLocked()
}

// insertAtMidpointLocked puts f at the head of the old sublist.
func (s *shard) insertAtMidpointLocked(f *frame) {
	if s.oldHead == nil {
		// Old list empty: append at tail.
		f.prev = s.tail
		f.next = nil
		if s.tail != nil {
			s.tail.next = f
		}
		s.tail = f
		if s.head == nil {
			s.head = f
		}
	} else {
		f.prev = s.oldHead.prev
		f.next = s.oldHead
		if s.oldHead.prev != nil {
			s.oldHead.prev.next = f
		} else {
			s.head = f
		}
		s.oldHead.prev = f
	}
	s.oldHead = f
	f.inList = true
	f.inOld.Store(true)
	f.moveGen.Store(s.gen.Load())
	s.total++
	s.oldCount++
	s.rebalanceLocked()
}

func (s *shard) unlinkLocked(f *frame) {
	if !f.inList {
		return
	}
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		s.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		s.tail = f.prev
	}
	if s.oldHead == f {
		s.oldHead = f.next // next toward tail stays old (or nil)
	}
	if f.inOld.Load() {
		s.oldCount--
	}
	s.total--
	f.inList = false
	f.prev, f.next = nil, nil
}

// rebalanceLocked maintains oldCount ≈ OldFraction * total by moving the
// young/old boundary.
func (s *shard) rebalanceLocked() {
	target := int(float64(s.total) * s.pool.cfg.OldFraction)
	for s.oldCount < target {
		// Grow old: the youngest-list tail page becomes old.
		var cand *frame
		if s.oldHead != nil {
			cand = s.oldHead.prev
		} else {
			cand = s.tail
		}
		if cand == nil || cand.inOld.Load() {
			break
		}
		cand.inOld.Store(true)
		s.oldHead = cand
		s.oldCount++
	}
	for s.oldCount > target+1 && s.oldHead != nil {
		// Shrink old: promote the old head to young.
		f := s.oldHead
		f.inOld.Store(false)
		s.oldHead = f.next
		s.oldCount--
	}
}

// claimVictimLocked scans from the tail (the coldest old page) for an
// unpinned, io-complete frame and claims it with a pin tombstone so no
// lock-free reader can pin it afterwards.
func (s *shard) claimVictimLocked() *frame {
	for f := s.tail; f != nil; f = f.prev {
		if f.ioPending.Load() {
			continue
		}
		if f.pins.CompareAndSwap(0, pinTomb) {
			return f
		}
	}
	return nil
}

// FlushAll writes every dirty resident page to the backing store (a
// checkpoint). Pages stay resident.
func (p *Pool) FlushAll() {
	for _, s := range p.shards {
		s.mu.Lock()
		frames := make([]*frame, 0, s.resident)
		for i := range s.buckets {
			for f := s.buckets[i].Load(); f != nil; f = f.hashNext.Load() {
				frames = append(frames, f)
			}
		}
		s.mu.Unlock()
		for _, f := range frames {
			if !f.dirty.Load() {
				continue
			}
			if p.dev != nil {
				p.dev.WriteBlock()
			}
			img := make([]byte, len(f.data))
			f.pageMu.Lock()
			copy(img, f.data)
			f.dirty.Store(false)
			f.pageMu.Unlock()
			s.storeMu.Lock()
			s.store[f.id] = img
			s.storeMu.Unlock()
			s.writeBacks.Add(1)
		}
	}
}

// Resident returns the number of pages currently in the pool.
func (p *Pool) Resident() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		n += s.resident
		s.mu.Unlock()
	}
	return n
}

// OldLen returns the old-sublist length summed over shards (for
// invariant tests).
func (p *Pool) OldLen() int {
	n := 0
	for _, s := range p.shards {
		s.lruLock()
		n += s.oldCount
		s.lruUnlock()
	}
	return n
}

// listLen walks the LRU lists under the shard LRU locks (for invariant
// tests).
func (p *Pool) listLen() int {
	n := 0
	for _, s := range p.shards {
		s.lruLock()
		for f := s.head; f != nil; f = f.next {
			n++
		}
		s.lruUnlock()
	}
	return n
}

// shardCapacities returns each shard's frame budget (for invariant
// tests).
func (p *Pool) shardCapacities() []int {
	caps := make([]int, len(p.shards))
	for i, s := range p.shards {
		caps[i] = s.capacity
	}
	return caps
}

// Stats returns a snapshot of counters merged across shards.
func (p *Pool) Stats() Stats {
	var st Stats
	for _, s := range p.shards {
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.WriteBacks += s.writeBacks.Load()
		st.MakeYoungs += s.makeYoungs.Load()
		st.Deferred += s.deferred.Load()
		st.Drained += s.drained.Load()
		st.DroppedDefer += s.dropped.Load()
		ms := s.lruEager.Stats()
		st.Mutex.Acquires += ms.Acquires
		st.Mutex.Contended += ms.Contended
		st.Mutex.WaitTime += ms.WaitTime
		if ms.MaxWait > st.Mutex.MaxWait {
			st.Mutex.MaxWait = ms.MaxWait
		}
	}
	return st
}
