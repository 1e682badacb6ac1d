package storage

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vats/internal/btree"
	"vats/internal/buffer"
)

// Multi-version concurrency: every key's NEWEST version stays inlined in
// its slotted-page row (so the PR-3 lock-free point-read fast path is
// untouched), and each write pushes the superseded inline image into an
// append-only per-table version arena. Each key's clustered-index entry
// is a row head (rowHead): a small seqlocked object that carries the
// newest version's location and timestamp plus the head of the chain of
// older versions. The head lives from the key's insert until GC or an
// aborted insert removes the key; every write, commit stamp, abort
// restore and GC pass rewrites it in place, so the copy-on-write tree
// changes only when a key is born or dies.
//
// Timestamps come from the table's mvcc.Clock. A committed version's ts
// is its commit timestamp; an in-flight transactional write holds a
// marker (uncommittedBit | txnID) until StampCommit/StampAbort resolves
// it. Visibility at snapshot timestamp r is a pure comparison: the
// newest version with committed ts <= r. The clock's contiguous
// watermark guarantees that any r handed to a reader covers only
// fully-stamped commits, so snapshot reads take no locks and never
// block (or are blocked by) writers.
//
// Garbage collection is epoch-based: versions superseded at or below the
// low-water read timestamp (min over active snapshot readers) are
// unreachable by every present and future reader and are freed in
// place; fully-dead arena chunks are dropped wholesale.

// uncommittedBit marks a rowMeta timestamp as an in-flight writer's
// marker; the low bits then carry the writer (transaction) id.
const uncommittedBit = 1 << 63

func tsCommitted(ts uint64) bool { return ts&uncommittedBit == 0 }

// writeMarker is the meta timestamp an in-flight transactional write
// installs until commit stamps it.
func writeMarker(wid uint64) uint64 { return uncommittedBit | wid }

// rowMeta is what a row head holds: where the newest version lives,
// its (commit or marker) timestamp, whether it is a deletion tombstone,
// and the arena index (1-based; 0 = none) of the next-older version.
type rowMeta struct {
	rid   RID
	ts    uint64
	older uint32
	tomb  bool
}

// rowHead is a key's clustered-index value for the key's whole life.
// Writers rewrite it in place under a sequence lock: seq is odd while a
// rewrite is in progress, and a reader retries until it loads the three
// meta words between two equal even seq reads. Every field is atomic,
// so a rewrite allocates nothing and races no reader. The page's space
// is always the table's own, so only its number is stored.
//
// Rewrites of one head are serialized: every writer holds the table
// mutex except StampCommit, which only touches a head carrying its own
// write marker (see StampCommit for why nothing else can write it).
type rowHead struct {
	seq  atomic.Uint64
	page atomic.Uint64 // rid.Page.No
	ts   atomic.Uint64
	word atomic.Uint64 // older | slot<<headSlotShift | headTomb
}

const (
	headSlotShift = 32
	headSlotMask  = 1<<31 - 1
	headTomb      = 1 << 63
	// headSpins is how many odd seq reads a reader spins through
	// before yielding: a rewrite is a few stores, so an odd seq that
	// persists means the writer was preempted mid-rewrite.
	headSpins = 4
)

// read returns the head's meta and the seq it was read at.
func (hd *rowHead) read(space uint32) (rowMeta, uint64) {
	for spin := 0; ; spin++ {
		if s := hd.seq.Load(); s&1 == 0 {
			no, ts, w := hd.page.Load(), hd.ts.Load(), hd.word.Load()
			if hd.seq.Load() == s {
				return rowMeta{
					rid:   RID{Page: buffer.PageID{Space: space, No: no}, Slot: int(w >> headSlotShift & headSlotMask)},
					ts:    ts,
					older: uint32(w),
					tomb:  w&headTomb != 0,
				}, s
			}
		}
		if spin >= headSpins {
			runtime.Gosched()
		}
	}
}

// load returns the head's meta.
func (hd *rowHead) load(space uint32) rowMeta {
	m, _ := hd.read(space)
	return m
}

// unchanged reports whether no rewrite began since read returned seq.
func (hd *rowHead) unchanged(seq uint64) bool { return hd.seq.Load() == seq }

// store rewrites the head to m.
func (hd *rowHead) store(m rowMeta) {
	w := uint64(m.older) | uint64(m.rid.Slot)<<headSlotShift
	if m.tomb {
		w |= headTomb
	}
	hd.seq.Add(1)
	hd.page.Store(m.rid.Page.No)
	hd.ts.Store(m.ts)
	hd.word.Store(w)
	hd.seq.Add(1)
}

// version is one superseded row image in the arena. All fields except
// older are immutable after publication; older is truncated (to 0) by
// GC on the boundary version and is read by aborting transactions and
// chain walks, hence atomic.
type version struct {
	ts    uint64
	older atomic.Uint32
	row   []byte
	tomb  bool
}

const (
	versionChunkBits = 8
	versionChunkSize = 1 << versionChunkBits
	versionChunkMask = versionChunkSize - 1
)

type versionChunk [versionChunkSize]version

// versionArena is the append-only store for superseded versions.
// Appends and frees happen under the table mutex; readers resolve
// indexes lock-free through the atomically-published chunk list (a
// version index obtained from a published rowMeta is always covered:
// the arena write happens-before the index publication).
type versionArena struct {
	chunks atomic.Pointer[[]*versionChunk]

	// Writer-owned bookkeeping (table mutex).
	n          uint32   // versions ever appended
	chunkFreed []uint16 // freed slots per chunk, to drop dead chunks

	// Gauges, readable without the table mutex.
	live  atomic.Int64 // appended minus freed
	bytes atomic.Int64 // sum of live row bytes
}

// push appends a version and returns its 1-based index. Caller holds
// the table mutex; row must be an exclusively-owned copy.
func (a *versionArena) push(ts uint64, row []byte, tomb bool, older uint32) uint32 {
	ci, off := int(a.n>>versionChunkBits), int(a.n&versionChunkMask)
	var chunks []*versionChunk
	if p := a.chunks.Load(); p != nil {
		chunks = *p
	}
	if ci == len(chunks) {
		next := make([]*versionChunk, len(chunks)+1)
		copy(next, chunks)
		next[ci] = new(versionChunk)
		a.chunks.Store(&next)
		chunks = next
		a.chunkFreed = append(a.chunkFreed, 0)
	}
	v := &chunks[ci][off]
	v.ts, v.row, v.tomb = ts, row, tomb
	v.older.Store(older)
	a.n++
	a.live.Add(1)
	a.bytes.Add(int64(len(row)))
	return a.n
}

// get resolves a 1-based version index. Safe lock-free for indexes
// reached through published metadata.
func (a *versionArena) get(idx uint32) *version {
	idx--
	chunks := *a.chunks.Load()
	return &chunks[idx>>versionChunkBits][idx&versionChunkMask]
}

// free releases one unreachable version. Caller holds the table mutex.
func (a *versionArena) free(idx uint32) {
	v := a.get(idx)
	a.bytes.Add(-int64(len(v.row)))
	v.row = nil
	a.live.Add(-1)
	ci := (idx - 1) >> versionChunkBits
	a.chunkFreed[ci]++
	if a.chunkFreed[ci] == versionChunkSize {
		// Every slot in the chunk is dead: drop the chunk pointer so the
		// whole block becomes collectible. Readers holding the old list
		// never dereference freed slots, so a copy-on-write nil suffices.
		old := *a.chunks.Load()
		next := make([]*versionChunk, len(old))
		copy(next, old)
		next[ci] = nil
		a.chunks.Store(&next)
	}
}

// limboRef parks a version popped off a chain by an aborting
// transaction: a reader that loaded the row head just before the abort
// restored it may still walk the chain from this version, so it can
// only be freed once every reader registered at or below safeAt has
// finished.
type limboRef struct {
	idx    uint32
	safeAt uint64
}

// MVCCStats is a point-in-time summary of a table's version store.
type MVCCStats struct {
	Versions   int64 // live arena versions (including limbo)
	ArenaBytes int64 // live arena row bytes
	ChainWalks int64 // snapshot reads that left the inline fast path
	ChainSteps int64 // total chain entries inspected by those walks
	Limbo      int   // versions parked by aborts, awaiting reclaim
	GCRuns     int64
	GCFreed    int64 // versions freed over the table's lifetime
}

// MVCCStats returns version-store gauges. Lock-free except Limbo.
func (t *Table) MVCCStats() MVCCStats {
	t.mu.RLock()
	limbo := len(t.limbo)
	t.mu.RUnlock()
	return MVCCStats{
		Versions:   t.arena.live.Load(),
		ArenaBytes: t.arena.bytes.Load(),
		ChainWalks: t.walks.Load(),
		ChainSteps: t.walkSteps.Load(),
		Limbo:      limbo,
		GCRuns:     t.gcRuns.Load(),
		GCFreed:    t.gcFreed.Load(),
	}
}

// noteHistoryLocked records that key now has history (a chain or a
// tombstone) so GC will visit it. Caller holds t.mu.
func (t *Table) noteHistoryLocked(key uint64) {
	if t.hist == nil {
		t.hist = make(map[uint64]struct{})
	}
	t.hist[key] = struct{}{}
}

// StampCommit resolves key's write marker to commit timestamp cts. The
// engine calls it for every written key after the WAL made the
// transaction durable and before the clock completes cts; idempotent
// (a key the transaction did not leave a marker on is untouched).
//
// It takes no table mutex. A head carrying wid's marker has exactly one
// possible writer, the committing transaction: the engine holds the
// key's exclusive record lock until after stamping, so no other
// transaction updates, deletes, stamps or aborts the key meanwhile; GC
// rewrites only heads it read as committed at or below the low-water
// mark and never a head that carries a write marker; and the
// non-transactional Insert/Update/Delete run only in single-threaded
// recovery. The tree lookup is a lock-free reader like any other, and
// the head cannot leave the tree while it carries the marker.
func (t *Table) StampCommit(wid, key, cts uint64) {
	if hd := t.index.head(key); hd != nil && hd.ts.Load() == writeMarker(wid) {
		m := hd.load(t.space)
		m.ts = cts
		hd.store(m)
	}
	t.noteCommit(cts)
}

// StampAbort restores key's pre-transaction version metadata after the
// engine's undo pass rewrote the row image back. The chain head (the
// version the transaction's first write pushed) is popped back inline;
// the popped arena slot is parked in limbo, because a reader may have
// loaded the head just before this restore and still walk the chain
// from the popped version. It is freed once every reader registered at
// or below safeAt has finished.
func (t *Table) StampAbort(wid, key uint64) {
	m := writeMarker(wid)
	t.mu.Lock()
	defer t.mu.Unlock()
	hd := t.index.head(key)
	if hd == nil {
		return
	}
	meta := hd.load(t.space)
	if meta.ts != m {
		return
	}
	if meta.older == 0 {
		// An aborted fresh insert. The engine's undo pass deletes these
		// before stamping, so this is defensive: drop the dangling key.
		t.seq.Add(1)
		t.index.Delete(key)
		t.seq.Add(1)
		if !meta.tomb {
			t.live.Add(-1)
		}
		delete(t.hist, key)
		return
	}
	v := t.arena.get(meta.older)
	restored := rowMeta{rid: meta.rid, ts: v.ts, older: v.older.Load(), tomb: v.tomb}
	hd.store(restored)
	t.limbo = append(t.limbo, limboRef{idx: meta.older, safeAt: t.clock.ReadTS()})
	if restored.older == 0 && !restored.tomb {
		delete(t.hist, key)
	}
}

// resolveSnapshot returns the row image visible at readTS for the key
// whose row head is hd, appended to buf. found is false when the key
// has no visible non-tombstone version.
//
// The head's meta, read now, describes the NEWEST version, so a
// committed meta at or below readTS is authoritative for WHICH version
// is visible (nothing newer at or below readTS can exist once readTS
// was readable); only the bytes need locating. The inline read counts
// only if the head was not rewritten meanwhile: an in-place update
// publishes its head before it overwrites the bytes, under the same
// page latch, and a relocation publishes it before tombstoning the old
// slot. A rewrite can leave the visible version inline (an update that
// relocated the row and then aborted restores the old timestamp at a
// new rid), so a failed read re-reads the head rather than walking the
// chain. Only an uncommitted or too-new meta proves the visible version
// lives on the chain.
func (t *Table) resolveSnapshot(h *buffer.Handle, key uint64, hd *rowHead, readTS uint64, buf []byte) (out []byte, found bool, err error) {
	base := len(buf)
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		cur, seq := hd.read(t.space)
		if !tsCommitted(cur.ts) || cur.ts > readTS {
			return t.walkChain(key, cur, readTS, buf[:base])
		}
		if cur.tomb {
			return buf, false, nil
		}
		fr, ferr := h.Fetch(cur.rid.Page)
		if ferr != nil {
			break // the slow path surfaces a persistent I/O error
		}
		fr.Latch()
		got, ok := pageReadRowAppend(fr.Data(), cur.rid.Slot, buf[:base])
		fr.Unlatch()
		fr.Release()
		if ok && hd.unchanged(seq) {
			return got, true, nil
		}
		// Relocated, tombstoned or overwritten under the read; replay.
	}
	return t.resolveSnapshotSlow(h, key, hd, readTS, buf[:base])
}

// resolveSnapshotSlow re-resolves under the shared lock, which excludes
// every writer that moves bytes (all of them hold t.mu exclusively;
// StampCommit, which does not, only turns a marker into a timestamp).
func (t *Table) resolveSnapshotSlow(h *buffer.Handle, key uint64, hd *rowHead, readTS uint64, buf []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cur := hd.load(t.space)
	if tsCommitted(cur.ts) && cur.ts <= readTS {
		if cur.tomb {
			return buf, false, nil
		}
		fr, err := h.Fetch(cur.rid.Page)
		if err != nil {
			return buf, false, fmt.Errorf("storage %s: %w", t.name, err)
		}
		fr.Latch()
		got, ok := pageReadRowAppend(fr.Data(), cur.rid.Slot, buf)
		fr.Unlatch()
		fr.Release()
		if !ok {
			return buf, false, fmt.Errorf("storage %s: key %d: visible version has dead slot", t.name, key)
		}
		return got, true, nil
	}
	return t.walkChain(key, cur, readTS, buf)
}

// walkChain finds the newest chain version at or below readTS, starting
// from cur's older pointer. Chain entries are immutable and the walk
// never reaches a GC-freed slot: every entry it inspects has ts above
// the low-water mark (readTS >= low water for any registered reader),
// and GC only frees strictly below the per-chain keep boundary.
func (t *Table) walkChain(key uint64, cur rowMeta, readTS uint64, buf []byte) ([]byte, bool, error) {
	start := time.Now()
	steps := int64(0)
	idx := cur.older
	var out []byte
	found := false
	for idx != 0 {
		v := t.arena.get(idx)
		steps++
		if v.ts <= readTS {
			if !v.tomb {
				out, found = append(buf, v.row...), true
			}
			break
		}
		idx = v.older.Load()
	}
	t.walks.Add(1)
	t.walkSteps.Add(steps)
	t.mv.Walk(steps, time.Since(start))
	if !found {
		return buf, false, nil
	}
	return out, true, nil
}

// SnapshotGet returns a copy of the row visible at readTS.
func (t *Table) SnapshotGet(h *buffer.Handle, key, readTS uint64) ([]byte, error) {
	out, err := t.SnapshotGetInto(h, key, readTS, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SnapshotGetInto appends the row visible at readTS to buf. It takes no
// locks on the fast path (the newest-version-inline case is the same
// lock-free page read GetInto does), never blocks writers, and returns
// ErrKeyNotFound when the key has no visible version. readTS must come
// from the table clock's BeginRead (or be <= its ReadTS watermark).
func (t *Table) SnapshotGetInto(h *buffer.Handle, key, readTS uint64, buf []byte) ([]byte, error) {
	hd := t.index.head(key)
	if hd == nil {
		return buf, ErrKeyNotFound
	}
	out, found, err := t.resolveSnapshot(h, key, hd, readTS, buf)
	if err != nil {
		return buf, err
	}
	if !found {
		return buf, ErrKeyNotFound
	}
	return out, nil
}

// SnapIter streams the rows visible at a snapshot timestamp over a key
// range, in key order. It is single-use and not safe for concurrent
// use; the row slice returned by Next is reused across calls. It holds
// no locks between or during calls — writers are never blocked.
type SnapIter struct {
	t      *Table
	h      *buffer.Handle
	readTS uint64
	it     btree.RangeIter[*rowHead]
	buf    []byte
	err    error
}

// NewSnapshotIter returns an iterator over the rows with keys in
// [lo, hi] visible at readTS. The key enumeration is frozen at the
// index root published now (every key with a version visible at readTS
// is in it); version resolution is per-row, from each key's head as
// Next reaches it (versions at or below readTS are immutable, so the
// result equals the state at readTS regardless of concurrent writers).
func (t *Table) NewSnapshotIter(h *buffer.Handle, lo, hi, readTS uint64) *SnapIter {
	return &SnapIter{t: t, h: h, readTS: readTS, it: t.index.NewRangeIter(lo, hi)}
}

// Next returns the next visible row. The returned slice is only valid
// until the following Next call. ok=false ends the scan; check Err.
func (it *SnapIter) Next() (key uint64, row []byte, ok bool) {
	if it.err != nil {
		return 0, nil, false
	}
	for {
		k, hd, more := it.it.Next()
		if !more {
			return 0, nil, false
		}
		out, found, err := it.t.resolveSnapshot(it.h, k, hd, it.readTS, it.buf[:0])
		if err != nil {
			it.err = err
			return 0, nil, false
		}
		if !found {
			continue
		}
		it.buf = out
		return k, out, true
	}
}

// Err returns the first error the scan hit (nil on clean exhaustion).
func (it *SnapIter) Err() error { return it.err }

// SnapshotScan calls fn for every key in [lo, hi] visible at readTS,
// ascending, until fn returns false. Row images are only valid during
// the callback. Unlike Scan (read-committed), the result is exactly the
// committed state at readTS.
func (t *Table) SnapshotScan(h *buffer.Handle, lo, hi, readTS uint64, fn func(key uint64, row []byte) bool) error {
	it := t.NewSnapshotIter(h, lo, hi, readTS)
	for {
		k, row, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if !fn(k, row) {
			return nil
		}
	}
}

// SnapIndexIter streams rows visible at a snapshot timestamp via a
// secondary index. Postings are enumerated from a frozen snapshot of
// the secondary tree; each candidate primary key is resolved to its
// visible version, and the secondary key is re-derived from that
// version so a posting left by a newer (invisible) write never yields a
// false positive. A posting REMOVED by a write that committed after
// readTS but before the scan froze the secondary tree is missed — the
// documented (rare, bounded) staleness of snapshot index scans.
type SnapIndexIter struct {
	t        *Table
	h        *buffer.Handle
	ix       *secondaryIndex
	readTS   uint64
	it       btree.RangeIter[[]uint64]
	key      uint64
	postings []uint64
	pos      int
	buf      []byte
	err      error
}

// NewSnapshotIndexIter returns an iterator over rows whose visible
// version's secondary key (per index name) lies in [lo, hi].
func (t *Table) NewSnapshotIndexIter(h *buffer.Handle, name string, lo, hi, readTS uint64) (*SnapIndexIter, error) {
	ix, ok := t.indexByName(name)
	if !ok {
		return nil, fmt.Errorf("storage %s: no index %q", t.name, name)
	}
	return &SnapIndexIter{t: t, h: h, ix: ix, readTS: readTS, it: ix.tree.NewRangeIter(lo, hi)}, nil
}

// Next returns the next visible row in secondary-key order (ties in
// posting order). The row slice is reused across calls.
func (it *SnapIndexIter) Next() (pk uint64, row []byte, ok bool) {
	if it.err != nil {
		return 0, nil, false
	}
	for {
		for it.pos >= len(it.postings) {
			k, pks, more := it.it.Next()
			if !more {
				return 0, nil, false
			}
			it.key, it.postings, it.pos = k, pks, 0
		}
		pk = it.postings[it.pos]
		it.pos++
		hd := it.t.index.head(pk)
		if hd == nil {
			continue
		}
		out, found, err := it.t.resolveSnapshot(it.h, pk, hd, it.readTS, it.buf[:0])
		if err != nil {
			it.err = err
			return 0, nil, false
		}
		if !found {
			continue
		}
		if k2, ok2 := it.ix.keyOf(pk, out); !ok2 || k2 != it.key {
			continue // visible version no longer carries this index key
		}
		it.buf = out
		return pk, out, true
	}
}

// Err returns the first error the scan hit.
func (it *SnapIndexIter) Err() error { return it.err }

// SnapshotIndexScan is the callback form of SnapIndexIter.
func (t *Table) SnapshotIndexScan(h *buffer.Handle, name string, lo, hi, readTS uint64, fn func(pk uint64, row []byte) bool) error {
	it, err := t.NewSnapshotIndexIter(h, name, lo, hi, readTS)
	if err != nil {
		return err
	}
	for {
		pk, row, ok := it.Next()
		if !ok {
			return it.Err()
		}
		if !fn(pk, row) {
			return nil
		}
	}
}

// GC frees every version unreachable at low-water timestamp lw (from
// the clock's LowWater): per chain, everything strictly older than the
// first version at or below lw; committed tombstones at or below lw
// leave the index entirely; limbo versions whose pre-abort readers are
// provably gone. Returns the number of versions freed. Runs under
// the table mutex (writers briefly excluded; readers unaffected).
func (t *Table) GC(lw uint64) (freed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gcRuns.Add(1)

	// Limbo: a parked version is dead once every reader that could hold
	// a pre-abort head meta (readTS <= safeAt) has unregistered.
	if len(t.limbo) > 0 {
		keep := t.limbo[:0]
		for _, le := range t.limbo {
			if le.safeAt < lw {
				t.arena.free(le.idx)
				freed++
			} else {
				keep = append(keep, le)
			}
		}
		t.limbo = keep
	}

	for key := range t.hist {
		hd := t.index.head(key)
		if hd == nil {
			delete(t.hist, key)
			continue
		}
		meta := hd.load(t.space)
		if tsCommitted(meta.ts) && meta.ts <= lw {
			// The inline version is the keep boundary: the whole chain is
			// unreachable.
			freed += t.freeChainLocked(meta.older)
			if meta.tomb {
				// No reader at or above lw can see anything for this key.
				t.index.Delete(key)
				delete(t.hist, key)
				continue
			}
			if meta.older != 0 {
				// Committed at or below lw: no writer but this one may
				// rewrite the head (see StampCommit).
				meta.older = 0
				hd.store(meta)
			}
			delete(t.hist, key)
			continue
		}
		// Walk to the keep boundary (first chain version at or below lw)
		// and truncate behind it.
		idx := meta.older
		for idx != 0 {
			v := t.arena.get(idx)
			if v.ts <= lw {
				if older := v.older.Load(); older != 0 {
					v.older.Store(0)
					freed += t.freeChainLocked(older)
				}
				break
			}
			idx = v.older.Load()
		}
	}
	t.gcFreed.Add(int64(freed))
	return freed
}

// freeChainLocked frees the whole chain starting at idx. Caller holds
// t.mu and has made the chain unreachable.
func (t *Table) freeChainLocked(idx uint32) int {
	n := 0
	for idx != 0 {
		v := t.arena.get(idx)
		next := v.older.Load()
		t.arena.free(idx)
		idx = next
		n++
	}
	return n
}
