package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vats/internal/btree"
	"vats/internal/buffer"
	"vats/internal/mvcc"
	"vats/internal/obs"
)

// Errors returned by Table operations.
var (
	// ErrDuplicateKey means an Insert hit an existing primary key.
	ErrDuplicateKey = errors.New("storage: duplicate key")
	// ErrKeyNotFound means the primary key does not exist.
	ErrKeyNotFound = errors.New("storage: key not found")
	// ErrRowTooLarge means the row cannot fit in a page.
	ErrRowTooLarge = errors.New("storage: row too large for page")
	// ErrEmptyRow means a zero-length row image was supplied; the
	// slotted page cannot represent an empty live extent.
	ErrEmptyRow = errors.New("storage: empty row")
)

// RID locates a row: the page and its slot.
type RID struct {
	Page buffer.PageID
	Slot int
}

// Table is a multi-versioned heap table with a clustered B+-tree index
// on a uint64 primary key. Row images are opaque byte slices (see
// RowBuilder). The index maps each key to its row head: a seqlocked
// object holding the newest version's location and timestamp plus its
// chain of older versions in the version arena (see mvcc.go). A key
// keeps one head from insert until GC or an aborted insert removes it;
// updates, commit stamps, abort restores and GC rewrite the head in
// place, so the copy-on-write tree changes only on a key's birth or
// death.
//
// Reads are optimistic: readers traverse the copy-on-write tree and
// load heads lock-free, and a table-level sequence counter validates
// that the head load and the page read observed the same structural
// version (the seqlock pattern). Only the operations that tombstone a
// slot — Delete and relocating Updates — bump the sequence; Insert and
// in-place Update do not, because a row's page image is in place before
// its head publishes the RID (and an in-place overwrite publishes its
// new meta under the page latch before touching bytes), so bulk loads
// never knock readers off the fast path. A reader that keeps losing the
// race falls back to the shared lock, which excludes structural writers.
//
// Physical consistency is internal (seqlock + page latches); isolation
// between transactions touching the same key is the caller's
// responsibility via the lock manager — except snapshot reads
// (SnapshotGetInto / SnapshotScan), whose visibility is a pure
// timestamp comparison and which take no locks at all.
type Table struct {
	name  string
	space uint32
	pool  *buffer.Pool
	clock *mvcc.Clock
	mv    *obs.MVCCMetrics

	// seq is the structural version: odd while a tombstoning writer is
	// inside its critical section, even otherwise. Writers bump it
	// (twice) while holding mu.
	seq atomic.Uint64

	// index maps each primary key to its row head. The tree is
	// copy-on-write and changes only when a key is born or dies (under
	// mu); a head is rewritten in place (see rowHead for who may).
	index rowIndex

	// idxs is the immutable secondary-index list, replaced wholesale by
	// CreateIndex (copy-on-write under mu).
	idxs atomic.Pointer[[]*secondaryIndex]

	// nextPage is the page allocation high-water mark; atomic so Pages
	// never has to queue behind a bulk load.
	nextPage atomic.Uint64

	// live counts non-tombstone keys (Len), maintained under mu but
	// readable lock-free.
	live atomic.Int64

	// lastCommit is the highest commit timestamp ever stamped into one
	// of this table's versions (monotone max; bumped before the clock
	// completes the timestamp). Because stamping happens-before the
	// commit clock's contiguous watermark reaches the timestamp, a
	// reader holding a snapshot at watermark ts observes the bump of
	// every commit with cts ≤ ts — so LastCommitTS() ≤ some older ts0
	// certifies no commit in (ts0, ts] touched the table.
	lastCommit atomic.Uint64

	// Chain-walk counters for MVCCStats.
	walks     atomic.Int64
	walkSteps atomic.Int64
	gcRuns    atomic.Int64
	gcFreed   atomic.Int64

	mu       sync.RWMutex // serializes writers; fallback readers share it
	fillPage buffer.PageID
	hasFill  bool

	arena versionArena
	hist  map[uint64]struct{} // keys with a chain or tombstone (GC worklist)
	limbo []limboRef
}

// NewTable creates an empty table in the given buffer pool with a
// private commit clock. space must be unique per pool. The engine uses
// NewTableWithClock so every table shares the database clock.
func NewTable(name string, space uint32, pool *buffer.Pool) *Table {
	return NewTableWithClock(name, space, pool, mvcc.NewClock(), nil)
}

// NewTableWithClock creates an empty table stamping versions from the
// given shared clock; mv (may be nil) receives MVCC metrics.
func NewTableWithClock(name string, space uint32, pool *buffer.Pool, clock *mvcc.Clock, mv *obs.MVCCMetrics) *Table {
	return &Table{
		name:  name,
		space: space,
		pool:  pool,
		clock: clock,
		mv:    mv,
		index: rowIndex{tree: btree.New[*rowHead](0), space: space},
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Space returns the table's page-space id.
func (t *Table) Space() uint32 { return t.space }

// Clock returns the commit clock stamping this table's versions.
func (t *Table) Clock() *mvcc.Clock { return t.clock }

// LastCommitTS returns the highest commit timestamp stamped into this
// table so far. Read under a snapshot at watermark ts, a return value
// ≤ ts0 (for ts0 ≤ ts) proves no commit with cts in (ts0, ts] wrote
// this table — the incremental checkpointer's re-emission gate.
func (t *Table) LastCommitTS() uint64 { return t.lastCommit.Load() }

// noteCommit raises lastCommit to cts (monotone max). Called before
// t.clock.Complete(cts) on every path that stamps cts into a version.
func (t *Table) noteCommit(cts uint64) {
	for {
		cur := t.lastCommit.Load()
		if cts <= cur || t.lastCommit.CompareAndSwap(cur, cts) {
			return
		}
	}
}

// Len returns the number of live (non-tombstone) rows. It never blocks
// behind writers, so stats endpoints cannot stall behind a bulk load.
func (t *Table) Len() int { return int(t.live.Load()) }

// Pages returns the number of pages allocated so far (lock-free).
func (t *Table) Pages() uint64 { return t.nextPage.Load() }

func (t *Table) loadIndexes() []*secondaryIndex {
	if p := t.idxs.Load(); p != nil {
		return *p
	}
	return nil
}

// Insert adds a row under key as an immediately-committed write (its
// version is stamped from the table clock). h is the caller's
// worker-local buffer handle. Transactional writers use InsertTxn.
func (t *Table) Insert(h *buffer.Handle, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.insertLocked(h, cts, key, row)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// InsertTxn adds a row under key on behalf of in-flight transaction
// wid. The version stays marked uncommitted until StampCommit or
// StampAbort; the caller must hold the key's exclusive record lock.
func (t *Table) InsertTxn(h *buffer.Handle, wid, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	t.mu.Lock()
	err := t.insertLocked(h, writeMarker(wid), key, row)
	t.mu.Unlock()
	return err
}

// insertLocked installs a new version under key with timestamp ts
// (commit ts or write marker). Caller holds t.mu.
func (t *Table) insertLocked(h *buffer.Handle, ts, key uint64, row []byte) error {
	if hd := t.index.head(key); hd != nil {
		meta := hd.load(t.space)
		if !meta.tomb {
			return ErrDuplicateKey
		}
		pushed := uint32(0)
		if meta.ts != ts {
			// Insert over a committed tombstone: the tombstone becomes a
			// chain version so older snapshots keep seeing the deletion.
			meta.older = t.arena.push(meta.ts, nil, true, meta.older)
			pushed = meta.older
		}
		// Same-transaction re-insert after its own delete reuses the
		// marker; the chain already holds the pre-transaction version.
		rid, err := t.placeRowLocked(h, row)
		if err != nil {
			if pushed != 0 {
				// Unpublished (the index still holds the tombstone meta):
				// free it so arena gauges stay equal to what is reachable.
				t.arena.free(pushed)
			}
			return err
		}
		meta.rid, meta.ts, meta.tomb = rid, ts, false
		hd.store(meta)
		t.noteHistoryLocked(key)
		t.live.Add(1)
		t.indexInsertLocked(key, row)
		return nil
	}
	rid, err := t.placeRowLocked(h, row)
	if err != nil {
		return err
	}
	// The page image is written before the index publishes the key's new
	// head, so optimistic readers either miss the key or see a complete
	// row; no seq bump is needed.
	t.index.Insert(key, rowMeta{rid: rid, ts: ts})
	t.live.Add(1)
	t.indexInsertLocked(key, row)
	return nil
}

// placeRowLocked finds space for a row, allocating pages as needed.
// Caller holds t.mu.
func (t *Table) placeRowLocked(h *buffer.Handle, row []byte) (RID, error) {
	for attempt := 0; attempt < 2; attempt++ {
		if t.hasFill {
			fr, err := h.Fetch(t.fillPage)
			if err != nil {
				return RID{}, fmt.Errorf("storage %s: fill page: %w", t.name, err)
			}
			var slot int
			var ok bool
			fr.WithPageLock(func() {
				slot, ok = pageInsertRow(fr.Data(), row)
			})
			if ok {
				fr.MarkDirty()
				rid := RID{Page: fr.ID(), Slot: slot}
				fr.Release()
				return rid, nil
			}
			fr.Release()
			t.hasFill = false
		}
		// Allocate a fresh page.
		id := buffer.PageID{Space: t.space, No: t.nextPage.Add(1)}
		fr, err := t.pool.Create(id)
		if err != nil {
			return RID{}, fmt.Errorf("storage %s: create page: %w", t.name, err)
		}
		fr.WithPageLock(func() {
			pageInit(fr.Data())
		})
		fr.MarkDirty()
		fr.Release()
		t.fillPage = id
		t.hasFill = true
	}
	return RID{}, ErrRowTooLarge
}

// optimisticRetries is how many times a reader replays the lock-free
// lookup+read before taking the shared lock.
const optimisticRetries = 3

// Get copies the newest row image stored under key (read-committed:
// whatever the inline version holds — callers wanting transactional
// isolation hold record locks, callers wanting a frozen timestamp use
// SnapshotGet).
func (t *Table) Get(h *buffer.Handle, key uint64) ([]byte, error) {
	row, err := t.GetInto(h, key, nil)
	if err != nil {
		return nil, err
	}
	return row, nil
}

// GetInto appends the newest row image stored under key to buf and
// returns the extended slice. With a buf of sufficient capacity the
// read path does not allocate. On error buf is returned unchanged.
func (t *Table) GetInto(h *buffer.Handle, key uint64, buf []byte) ([]byte, error) {
	base := len(buf)
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		s1 := t.seq.Load()
		if s1&1 != 0 {
			continue // a tombstoning writer is mid-section
		}
		meta, ok := t.index.Get(key)
		if !ok || meta.tomb {
			if t.seq.Load() == s1 {
				return buf, ErrKeyNotFound
			}
			continue
		}
		fr, err := h.Fetch(meta.rid.Page)
		if err != nil {
			if t.seq.Load() == s1 {
				return buf, fmt.Errorf("storage %s: %w", t.name, err)
			}
			continue
		}
		fr.Latch()
		out, ok := pageReadRowAppend(fr.Data(), meta.rid.Slot, buf[:base])
		fr.Unlatch()
		fr.Release()
		if t.seq.Load() != s1 || !ok {
			continue // the row moved under us; replay
		}
		return out, nil
	}

	// Fallback: hold the shared lock across the index lookup and the
	// page read, fully excluding structural writers.
	t.mu.RLock()
	defer t.mu.RUnlock()
	meta, ok := t.index.Get(key)
	if !ok || meta.tomb {
		return buf, ErrKeyNotFound
	}
	fr, err := h.Fetch(meta.rid.Page)
	if err != nil {
		return buf, fmt.Errorf("storage %s: %w", t.name, err)
	}
	fr.Latch()
	out, ok := pageReadRowAppend(fr.Data(), meta.rid.Slot, buf[:base])
	fr.Unlatch()
	fr.Release()
	if !ok {
		return buf, ErrKeyNotFound
	}
	return out, nil
}

func (t *Table) readRID(h *buffer.Handle, rid RID) ([]byte, error) {
	fr, err := h.Fetch(rid.Page)
	if err != nil {
		return nil, fmt.Errorf("storage %s: %w", t.name, err)
	}
	fr.Latch()
	row, ok := pageReadRow(fr.Data(), rid.Slot)
	fr.Unlatch()
	fr.Release()
	if !ok {
		return nil, ErrKeyNotFound
	}
	return row, nil
}

// Update replaces the row under key as an immediately-committed write,
// pushing the superseded version onto the key's chain. Transactional
// writers use UpdateTxn.
func (t *Table) Update(h *buffer.Handle, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.updateLocked(h, cts, key, row)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// UpdateTxn replaces the row under key on behalf of in-flight
// transaction wid (see InsertTxn for the marker protocol).
func (t *Table) UpdateTxn(h *buffer.Handle, wid, key uint64, row []byte) error {
	if len(row) == 0 {
		return ErrEmptyRow
	}
	if len(row) > maxRowSize(t.pool.PageSize()) {
		return ErrRowTooLarge
	}
	t.mu.Lock()
	err := t.updateLocked(h, writeMarker(wid), key, row)
	t.mu.Unlock()
	return err
}

// updateLocked installs a new version of key with timestamp ts,
// relocating the row if the new image no longer fits in place. Caller
// holds t.mu.
func (t *Table) updateLocked(h *buffer.Handle, ts, key uint64, row []byte) error {
	hd := t.index.head(key)
	if hd == nil {
		return ErrKeyNotFound
	}
	meta := hd.load(t.space)
	if meta.tomb {
		return ErrKeyNotFound
	}
	old, err := t.readRID(h, meta.rid)
	if err != nil {
		return err
	}
	prevOlder := meta.older
	pushed := uint32(0)
	if meta.ts != ts {
		// First write of this version: preserve the superseded image.
		// (A transaction overwriting its own uncommitted write replaces
		// the bytes without growing the chain.)
		cp := append([]byte(nil), old...)
		meta.older = t.arena.push(meta.ts, cp, false, meta.older)
		pushed = meta.older
		t.noteHistoryLocked(key)
	}
	meta.ts = ts
	// undoPush reverses this call's arena push when a later step fails:
	// the new meta was never published (the head still holds the
	// pre-call meta), so the pushed version is unreachable by every
	// reader and freeing it keeps the arena gauges equal to what chains
	// and limbo can reach.
	undoPush := func() {
		if pushed == 0 {
			return
		}
		t.arena.free(pushed)
		if prevOlder == 0 {
			delete(t.hist, key)
		}
	}

	fr, err := h.Fetch(meta.rid.Page)
	if err != nil {
		undoPush()
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	// In-place path: publish the new meta and overwrite the bytes under
	// ONE page-latch hold, so a snapshot reader can never pair the new
	// bytes with the old timestamp (its latched read orders against this
	// section, and its meta re-check sees the new meta).
	inPlace := false
	fr.Latch()
	if _, length, ok := slotBounds(fr.Data(), meta.rid.Slot); ok && len(row) <= length {
		hd.store(meta)
		pageUpdateRowInPlace(fr.Data(), meta.rid.Slot, row)
		inPlace = true
	}
	fr.Unlatch()
	if inPlace {
		fr.MarkDirty()
		fr.Release()
		t.indexDeleteLocked(key, old)
		t.indexInsertLocked(key, row)
		return nil
	}
	fr.Release()

	// Relocate: place the new image, publish the new meta, then
	// tombstone the old slot inside a seqlock critical section.
	oldRID := meta.rid
	newRID, err := t.placeRowLocked(h, row)
	if err != nil {
		undoPush()
		return err
	}
	fr2, err := h.Fetch(oldRID.Page)
	if err != nil {
		undoPush()
		// Drop the just-placed copy too: its rid was never published, so
		// no reader can hold it.
		if nf, nerr := h.Fetch(newRID.Page); nerr == nil {
			nf.Latch()
			pageDeleteRow(nf.Data(), newRID.Slot)
			nf.Unlatch()
			nf.MarkDirty()
			nf.Release()
		}
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	meta.rid = newRID
	t.seq.Add(1)
	hd.store(meta)
	fr2.Latch()
	pageDeleteRow(fr2.Data(), oldRID.Slot)
	fr2.Unlatch()
	fr2.MarkDirty()
	t.seq.Add(1)
	fr2.Release()
	t.indexDeleteLocked(key, old)
	t.indexInsertLocked(key, row)
	return nil
}

// Delete removes the row under key as an immediately-committed write;
// the key stays in the index as a tombstone version until GC reclaims
// it. Transactional writers use DeleteTxn.
func (t *Table) Delete(h *buffer.Handle, key uint64) error {
	cts := t.clock.Allocate()
	t.mu.Lock()
	err := t.deleteLocked(h, cts, key)
	t.mu.Unlock()
	if err == nil {
		t.noteCommit(cts)
	}
	t.clock.Complete(cts)
	return err
}

// DeleteTxn removes the row under key on behalf of in-flight
// transaction wid (see InsertTxn for the marker protocol).
func (t *Table) DeleteTxn(h *buffer.Handle, wid, key uint64) error {
	t.mu.Lock()
	err := t.deleteLocked(h, writeMarker(wid), key)
	t.mu.Unlock()
	return err
}

// deleteLocked tombstones key at timestamp ts. The index update and the
// page tombstone happen inside one seqlock critical section so an
// optimistic reader can never see the dead slot with a stable sequence.
// Caller holds t.mu.
func (t *Table) deleteLocked(h *buffer.Handle, ts, key uint64) error {
	hd := t.index.head(key)
	if hd == nil {
		return ErrKeyNotFound
	}
	meta := hd.load(t.space)
	if meta.tomb {
		return ErrKeyNotFound
	}
	old, err := t.readRID(h, meta.rid)
	if err != nil {
		return err
	}
	t.indexDeleteLocked(key, old)
	fr, err := h.Fetch(meta.rid.Page)
	if err != nil {
		return fmt.Errorf("storage %s: %w", t.name, err)
	}
	if meta.ts == ts && meta.older == 0 {
		// The key was created by this same uncommitted transaction and
		// has no prior version: no reader at any timestamp may see it, so
		// drop it outright (this is also the undo path for an aborted
		// insert).
		t.seq.Add(1)
		t.index.Delete(key)
		fr.Latch()
		pageDeleteRow(fr.Data(), meta.rid.Slot)
		fr.Unlatch()
		fr.MarkDirty()
		t.seq.Add(1)
		fr.Release()
		t.live.Add(-1)
		delete(t.hist, key)
		return nil
	}
	if meta.ts != ts {
		cp := append([]byte(nil), old...)
		meta.older = t.arena.push(meta.ts, cp, false, meta.older)
	}
	meta.ts, meta.tomb = ts, true
	t.seq.Add(1)
	hd.store(meta)
	fr.Latch()
	pageDeleteRow(fr.Data(), meta.rid.Slot)
	fr.Unlatch()
	fr.MarkDirty()
	t.seq.Add(1)
	fr.Release()
	t.live.Add(-1)
	t.noteHistoryLocked(key)
	return nil
}

// Scan calls fn for every key in [lo, hi] ascending until fn returns
// false, at READ-COMMITTED isolation: it streams over a copy-on-write
// snapshot of the key set without taking the table lock and reads each
// key's current head and newest inline version, so rows committed,
// deleted, or relocated mid-scan may or may not appear — each row image
// is individually latch-consistent, but the scan as a whole is no
// single point in time. Use SnapshotScan for a frozen-timestamp view.
// The row images passed to fn are copies.
func (t *Table) Scan(h *buffer.Handle, lo, hi uint64, fn func(key uint64, row []byte) bool) error {
	var err error
	t.index.AscendRange(lo, hi, func(k uint64, meta rowMeta) bool {
		if meta.tomb {
			return true
		}
		var row []byte
		row, err = t.readRID(h, meta.rid)
		if errors.Is(err, ErrKeyNotFound) {
			err = nil
			return true // deleted or relocated since the snapshot
		}
		if err != nil {
			return false
		}
		return fn(k, row)
	})
	return err
}
