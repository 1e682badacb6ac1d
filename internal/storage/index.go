package storage

import (
	"errors"
	"fmt"

	"vats/internal/btree"
	"vats/internal/buffer"
)

// rowIndex is the clustered index: a copy-on-write B+-tree from each
// primary key to its row head. Lookups and scans run lock-free against
// the tree; only births (Insert) and deaths (Delete) change it, and
// they are serialized by the table mutex. Rewriting an existing key's
// meta goes through its head and leaves the tree alone.
type rowIndex struct {
	tree  *btree.Tree[*rowHead]
	space uint32
}

// head returns key's row head, or nil if the key is absent.
func (x rowIndex) head(key uint64) *rowHead {
	hd, _ := x.tree.Get(key)
	return hd
}

// Get returns key's current meta.
func (x rowIndex) Get(key uint64) (rowMeta, bool) {
	hd, ok := x.tree.Get(key)
	if !ok {
		return rowMeta{}, false
	}
	return hd.load(x.space), true
}

// Insert gives key, which must be absent, a new head holding m. The
// head is complete before the tree publishes it.
func (x rowIndex) Insert(key uint64, m rowMeta) {
	hd := new(rowHead)
	hd.store(m)
	x.tree.Insert(key, hd)
}

// Delete removes key and its head.
func (x rowIndex) Delete(key uint64) { x.tree.Delete(key) }

// Len returns the number of keys, tombstones included.
func (x rowIndex) Len() int { return x.tree.Len() }

// AscendRange calls fn with each key in [lo, hi] and its current meta,
// ascending, until fn returns false. The key set is the one published
// when the scan began; each meta is read when fn is reached.
func (x rowIndex) AscendRange(lo, hi uint64, fn func(key uint64, m rowMeta) bool) {
	x.tree.AscendRange(lo, hi, func(k uint64, hd *rowHead) bool {
		return fn(k, hd.load(x.space))
	})
}

// Ascend is AscendRange over every key.
func (x rowIndex) Ascend(fn func(key uint64, m rowMeta) bool) {
	x.AscendRange(0, ^uint64(0), fn)
}

// NewRangeIter returns a head iterator over [lo, hi] (see AscendRange).
func (x rowIndex) NewRangeIter(lo, hi uint64) btree.RangeIter[*rowHead] {
	return x.tree.NewRangeIter(lo, hi)
}

// IndexKeyFunc derives a (non-unique) secondary key from a row. Return
// ok=false to leave the row out of the index (partial index).
type IndexKeyFunc func(pk uint64, row []byte) (key uint64, ok bool)

// secondaryIndex maps a derived key to the primary keys of the rows
// carrying it. Mutations are serialized by the table's mutex; the tree
// is copy-on-write, so scans read it lock-free.
type secondaryIndex struct {
	name  string
	keyOf IndexKeyFunc
	tree  *btree.Tree[[]uint64]
}

// add and remove never mutate a stored pk slice in place: the tree's
// published snapshots share values with readers, so each change installs
// a fresh slice.
func (ix *secondaryIndex) add(key, pk uint64) {
	pks, _ := ix.tree.Get(key)
	out := make([]uint64, len(pks)+1)
	copy(out, pks)
	out[len(pks)] = pk
	ix.tree.Insert(key, out)
}

func (ix *secondaryIndex) remove(key, pk uint64) {
	pks, ok := ix.tree.Get(key)
	if !ok {
		return
	}
	out := make([]uint64, 0, len(pks))
	for _, p := range pks {
		if p != pk {
			out = append(out, p)
		}
	}
	switch {
	case len(out) == len(pks):
		// pk was not in the posting list; nothing to do.
	case len(out) == 0:
		ix.tree.Delete(key)
	default:
		ix.tree.Insert(key, out)
	}
}

// CreateIndex adds a secondary index and backfills it from the existing
// rows. h is the caller's buffer handle (backfill reads pages).
func (t *Table) CreateIndex(h *buffer.Handle, name string, keyOf IndexKeyFunc) error {
	if keyOf == nil {
		return fmt.Errorf("storage %s: nil index key func", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.loadIndexes()
	for _, ix := range old {
		if ix.name == name {
			return fmt.Errorf("storage %s: index %q exists", t.name, name)
		}
	}
	ix := &secondaryIndex{name: name, keyOf: keyOf, tree: btree.New[[]uint64](0)}
	// Backfill. Reading pages under t.mu is deadlock-free (readRID takes
	// no table lock) and keeps the backfill atomic with respect to
	// writers.
	var err error
	t.index.Ascend(func(pk uint64, meta rowMeta) bool {
		if meta.tomb {
			return true
		}
		var row []byte
		row, err = t.readRID(h, meta.rid)
		if err != nil {
			return false
		}
		if key, ok := keyOf(pk, row); ok {
			ix.add(key, pk)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("storage %s: backfill %q: %w", t.name, name, err)
	}
	// Publish a fresh list (copy-on-write) so concurrent readers never
	// see a partially-built slice.
	next := make([]*secondaryIndex, len(old)+1)
	copy(next, old)
	next[len(old)] = ix
	t.idxs.Store(&next)
	return nil
}

func (t *Table) indexByName(name string) (*secondaryIndex, bool) {
	for _, ix := range t.loadIndexes() {
		if ix.name == name {
			return ix, true
		}
	}
	return nil, false
}

// indexInsertLocked/indexDeleteLocked maintain all indexes; caller
// holds t.mu.
func (t *Table) indexInsertLocked(pk uint64, row []byte) {
	for _, ix := range t.loadIndexes() {
		if key, ok := ix.keyOf(pk, row); ok {
			ix.add(key, pk)
		}
	}
}

func (t *Table) indexDeleteLocked(pk uint64, row []byte) {
	for _, ix := range t.loadIndexes() {
		if key, ok := ix.keyOf(pk, row); ok {
			ix.remove(key, pk)
		}
	}
}

// IndexScan calls fn for every row whose secondary key falls in
// [lo, hi], ascending by secondary key (rows sharing a key come in
// posting order: the order their postings were added), until fn returns
// false. Row images are copies. The scan streams over a copy-on-write
// snapshot of the secondary tree and reads each posting's current row
// head without taking the table lock; rows deleted or relocated
// mid-scan are skipped (read-committed, as in Scan). Any other read
// error, such as a page the pool cannot fetch, stops the scan and is
// returned.
func (t *Table) IndexScan(h *buffer.Handle, name string, lo, hi uint64, fn func(pk uint64, row []byte) bool) error {
	ix, ok := t.indexByName(name)
	if !ok {
		return fmt.Errorf("storage %s: no index %q", t.name, name)
	}
	var err error
	ix.tree.AscendRange(lo, hi, func(_ uint64, pks []uint64) bool {
		for _, pk := range pks {
			meta, ok := t.index.Get(pk)
			if !ok || meta.tomb {
				continue
			}
			var row []byte
			row, err = t.readRID(h, meta.rid)
			if errors.Is(err, ErrKeyNotFound) {
				err = nil
				continue // deleted or relocated since the snapshot
			}
			if err != nil || !fn(pk, row) {
				return false
			}
		}
		return true
	})
	return err
}
