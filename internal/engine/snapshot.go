package engine

import (
	"vats/internal/storage"
	"vats/internal/tprofiler"
)

// SnapshotTxn is a read-only transaction over a frozen commit
// timestamp. It acquires NO locks — not on begin, not per row, not on
// finish — never retries, and never blocks (or is blocked by) writers:
// visibility is a pure timestamp comparison against immutable version
// chains, so a snapshot reader and a bulk writer proceed fully in
// parallel. Close releases the read registration so GC can advance; a
// leaked SnapshotTxn pins version reclamation, not correctness.
//
// The snapshot sees exactly the transactions with CommitTS <= ReadTS():
// the clock hands out only fully-stamped prefixes, so there is no
// in-flight commit the snapshot could half-see.
//
// SnapshotTxn is single-goroutine, like Txn.
type SnapshotTxn struct {
	s      *Session
	readTS uint64
	tc     *tprofiler.TxnCtx // the one capture, as on Txn
	done   bool
}

// BeginSnapshot opens a snapshot transaction at the current committed
// frontier.
func (s *Session) BeginSnapshot() *SnapshotTxn {
	s.db.mvmet.Snapshot()
	tx := &SnapshotTxn{
		s:      s,
		readTS: s.db.clock.BeginRead(),
		tc:     s.db.obs.Tracer.Begin(s.db.cfg.Profiler, 0),
	}
	s.beginWaits(tx.tc)
	return tx
}

// ReadTS returns the frozen commit timestamp this snapshot reads at.
func (tx *SnapshotTxn) ReadTS() uint64 { return tx.readTS }

// Get returns a copy of the row under key as of the snapshot, or
// storage.ErrKeyNotFound if no version is visible.
func (tx *SnapshotTxn) Get(t *storage.Table, key uint64) ([]byte, error) {
	tok := tx.tc.Enter("exec.select")
	row, err := t.SnapshotGet(tx.s.h, key, tx.readTS)
	tx.tc.Exit(tok)
	return row, err
}

// GetInto appends the row visible at the snapshot to buf; with enough
// capacity and the visible version still inline, the read allocates
// nothing.
func (tx *SnapshotTxn) GetInto(t *storage.Table, key uint64, buf []byte) ([]byte, error) {
	tok := tx.tc.Enter("exec.select")
	row, err := t.SnapshotGetInto(tx.s.h, key, tx.readTS, buf)
	tx.tc.Exit(tok)
	return row, err
}

// Scan calls fn for every key in [lo, hi] visible at the snapshot,
// ascending. Row images are only valid during the callback.
func (tx *SnapshotTxn) Scan(t *storage.Table, lo, hi uint64, fn func(key uint64, row []byte) bool) error {
	tok := tx.tc.Enter("exec.scan")
	err := t.SnapshotScan(tx.s.h, lo, hi, tx.readTS, fn)
	tx.tc.Exit(tok)
	return err
}

// IndexScan calls fn for every row whose visible version's secondary
// key (per the named index) falls in [lo, hi]. See
// storage.SnapIndexIter for the staleness caveat on postings removed
// after the snapshot timestamp.
func (tx *SnapshotTxn) IndexScan(t *storage.Table, index string, lo, hi uint64, fn func(pk uint64, row []byte) bool) error {
	tok := tx.tc.Enter("exec.scan")
	err := t.SnapshotIndexScan(tx.s.h, index, lo, hi, tx.readTS, fn)
	tx.tc.Exit(tok)
	return err
}

// TableIter returns a streaming iterator over [lo, hi] at the snapshot
// (the pull form of Scan, for the executor).
func (tx *SnapshotTxn) TableIter(t *storage.Table, lo, hi uint64) *storage.SnapIter {
	return t.NewSnapshotIter(tx.s.h, lo, hi, tx.readTS)
}

// IndexIter returns a streaming iterator over the named secondary
// index at the snapshot (the pull form of IndexScan).
func (tx *SnapshotTxn) IndexIter(t *storage.Table, index string, lo, hi uint64) (*storage.SnapIndexIter, error) {
	return t.NewSnapshotIndexIter(tx.s.h, index, lo, hi, tx.readTS)
}

// Close releases the snapshot's read registration, letting GC reclaim
// versions only it could see, and ends the snapshot's capture the way a
// commit does. Idempotent.
func (tx *SnapshotTxn) Close() {
	if tx.done {
		return
	}
	tx.done = true
	tx.s.db.clock.EndRead(tx.readTS)
	tx.s.db.obs.Tracer.End(tx.tc, false)
}
