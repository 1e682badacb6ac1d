package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"vats/internal/lock"
	"vats/internal/obs"
	"vats/internal/storage"
	"vats/internal/tprofiler"
)

// Txn is a strict-2PL transaction. All row operations acquire record
// locks that are held until Commit or Rollback. Txn is single-goroutine.
//
// tc is the transaction's one capture (nil when neither a profiler nor
// obs's sampler wants it). Its span names map to the paper's culprit
// functions, and its leaves, through obs's factor table, to the live
// variance factors:
//
//	span                 paper                            factor
//	lock.wait.read       os_event_wait call site A        lock.wait
//	lock.wait.write      os_event_wait call site B        lock.wait
//	row.ins_clust_index  row_ins_clust_index_entry_low    —
//	buf.pool_mutex       buf_pool_mutex_enter             buf.pool_mutex
//	buf.io               data-page fil I/O                buf.io
//	log.flush            fil_flush / LWLockAcquireOrWait  log.flush
//	part.queue_wait      —                                part.queue_wait
//	part.xpart_2pc       —                                part.xpart_2pc
//	net.queue_wait       —                                net.queue_wait
//	net.shed             —                                net.shed
type Txn struct {
	s     *Session
	id    lock.TxnID
	birth time.Time
	tc    *tprofiler.TxnCtx
	undo  []undoEntry
	done  bool
	wrote bool

	// prepared is set once Prepare sealed the write set durably in the
	// WAL (phase one of two-phase commit); the transaction then finishes
	// with CommitPrepared or Rollback.
	prepared bool

	// undoBuf holds every statement's before-image back to back; the
	// undo entries reference it by offset. Borrowed from the Session like
	// the redo buffers, so steady-state updates/deletes capture their
	// before-image without allocating.
	undoBuf []byte

	// redo accumulates the transaction's encoded redo records; redoEnds
	// marks each record's end offset. The buffers are borrowed from the
	// Session at Begin and returned at Commit/Rollback, so steady-state
	// transactions encode redo without allocating. The whole set reaches
	// the WAL as one AppendBatch on the commit path — statements never
	// touch the log manager.
	redo     []byte
	redoEnds []int

	// cts is the commit timestamp stamped onto this transaction's
	// versions (0 until Commit, and forever for read-only transactions).
	cts uint64

	// snapTS is the frozen scan timestamp under Config.SnapshotScans
	// (registered with the clock at the first scan, released at finish);
	// snapReg records the registration.
	snapTS  uint64
	snapReg bool

	tag        string
	waitEvents []waitEvent // only when Config.SampleAgeRemaining
}

type waitEvent struct {
	enqueued time.Time
	granted  time.Time
}

// SetTag labels the transaction for age/remaining sampling (e.g. the
// TPC-C transaction type). Figure 8 groups correlations by this tag.
func (tx *Txn) SetTag(tag string) {
	tx.tag = tag
	if tx.tc != nil {
		tx.tc.Tag = tag
	}
}

// undoEntry references one statement's before-image inside the
// transaction's shared undoBuf (offset + length instead of a slice, so
// the buffer can grow without leaving stale views behind). Inserts have
// no before-image and carry oldLen 0.
type undoEntry struct {
	t      *storage.Table
	op     byte
	key    uint64
	oldOff int
	oldLen int
}

// Redo-record op codes (5 and 6 are the checkpoint records, see
// checkpoint.go; 7 and 8 are the two-phase-commit records).
const (
	redoInsert byte = 1
	redoUpdate byte = 2
	redoDelete byte = 3
	redoCommit byte = 4
	// redoPrepare seals a participant's write set for two-phase commit:
	// key carries the global transaction id (gtid). The writes and the
	// prepare marker travel as one WAL batch, so after a crash either
	// the whole prepared write set survives or none of it does.
	redoPrepare byte = 7
	// redoDecide is the coordinator's durable commit decision for a
	// gtid (key field). Recovery treats a prepared transaction as
	// committed iff a decision for its gtid is durable somewhere.
	redoDecide byte = 8
)

// Errors.
var (
	// ErrTxnDone means the transaction already committed or rolled back.
	ErrTxnDone = errors.New("engine: transaction finished")
	// ErrNotPrepared means CommitPrepared was called without Prepare.
	ErrNotPrepared = errors.New("engine: CommitPrepared without Prepare")
)

// ID returns the transaction id.
func (tx *Txn) ID() uint64 { return uint64(tx.id) }

// CommitTS returns the commit timestamp this transaction's writes were
// stamped with: 0 before Commit and for read-only transactions. Two
// committed writers' timestamps order their effects; a snapshot read at
// timestamp r sees exactly the transactions with CommitTS <= r.
func (tx *Txn) CommitTS() uint64 { return tx.cts }

// Birth returns the transaction's start time (the VATS age basis).
func (tx *Txn) Birth() time.Time { return tx.birth }

func (tx *Txn) check() error {
	if tx.done {
		return ErrTxnDone
	}
	if tx.s.db.closed.Load() {
		return ErrClosed
	}
	return nil
}

func (tx *Txn) lockRecord(t *storage.Table, key uint64, mode lock.Mode) error {
	name := "lock.wait.read"
	if mode == lock.Exclusive {
		name = "lock.wait.write"
	}
	tok := tx.tc.Enter(name)
	enq := time.Now()
	err := tx.s.db.locks.Acquire(tx.id, tx.birth, lock.Key{Space: t.Space(), ID: key}, mode)
	granted := time.Now()
	tx.tc.Exit(tok)
	if err != nil {
		return fmt.Errorf("engine: %s key %d: %w", t.Name(), key, err)
	}
	// A real wait is a scheduling decision: sample it for fig. 8.
	if tx.s.db.cfg.SampleAgeRemaining && granted.Sub(enq) > 50*time.Microsecond {
		tx.waitEvents = append(tx.waitEvents, waitEvent{enqueued: enq, granted: granted})
	}
	return nil
}

func (tx *Txn) flushWaitSamples() {
	if len(tx.waitEvents) == 0 {
		return
	}
	end := time.Now()
	samples := make([]AgeSample, len(tx.waitEvents))
	for i, ev := range tx.waitEvents {
		samples[i] = AgeSample{
			Age:       float64(ev.enqueued.Sub(tx.birth)) / float64(time.Millisecond),
			Remaining: float64(end.Sub(ev.granted)) / float64(time.Millisecond),
		}
	}
	tag := tx.tag
	if tag == "" {
		tag = "txn"
	}
	tx.s.db.addSamples(tag, samples)
	tx.waitEvents = nil
}

// recordBufWaits attributes the buffer pool's internal waits (LRU mutex,
// device I/O) accumulated by the last storage call to profiler leaves.
func (tx *Txn) recordBufWaits() {
	lru, io := tx.s.h.TakeWaits()
	tx.tc.Record("buf.pool_mutex", lru)
	tx.tc.Record("buf.io", io)
}

// Get reads the row under key with a shared lock, returning
// storage.ErrKeyNotFound if absent.
func (tx *Txn) Get(t *storage.Table, key uint64) ([]byte, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	tok := tx.tc.Enter("exec.select")
	defer tx.tc.Exit(tok)
	if err := tx.lockRecord(t, key, lock.Shared); err != nil {
		return nil, err
	}
	rtok := tx.tc.Enter("row.read")
	row, err := t.Get(tx.s.h, key)
	tx.recordBufWaits() // attribute pool waits as children of row.read
	tx.tc.Exit(rtok)
	return row, err
}

// GetForUpdate reads the row under key with an exclusive lock (SELECT
// ... FOR UPDATE). Use it when the row will be written later in the
// transaction: taking X immediately avoids the S→X upgrade deadlocks
// that read-then-write patterns cause.
func (tx *Txn) GetForUpdate(t *storage.Table, key uint64) ([]byte, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	tok := tx.tc.Enter("exec.select")
	defer tx.tc.Exit(tok)
	if err := tx.lockRecord(t, key, lock.Exclusive); err != nil {
		return nil, err
	}
	rtok := tx.tc.Enter("row.read")
	row, err := t.Get(tx.s.h, key)
	tx.recordBufWaits() // attribute pool waits as children of row.read
	tx.tc.Exit(rtok)
	return row, err
}

// Insert adds a new row under key with an exclusive lock.
func (tx *Txn) Insert(t *storage.Table, key uint64, row []byte) error {
	if err := tx.check(); err != nil {
		return err
	}
	tok := tx.tc.Enter("exec.insert")
	defer tx.tc.Exit(tok)
	if err := tx.lockRecord(t, key, lock.Exclusive); err != nil {
		return err
	}
	rtok := tx.tc.Enter("row.ins_clust_index")
	err := t.InsertTxn(tx.s.h, uint64(tx.id), key, row)
	tx.recordBufWaits()
	tx.tc.Exit(rtok)
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, undoEntry{t: t, op: redoInsert, key: key})
	tx.appendRedo(redoInsert, t.Space(), key, row)
	return nil
}

// Update replaces the row under key with an exclusive lock.
func (tx *Txn) Update(t *storage.Table, key uint64, row []byte) error {
	if err := tx.check(); err != nil {
		return err
	}
	tok := tx.tc.Enter("exec.update")
	defer tx.tc.Exit(tok)
	if err := tx.lockRecord(t, key, lock.Exclusive); err != nil {
		return err
	}
	base := len(tx.undoBuf)
	buf, err := t.GetInto(tx.s.h, key, tx.undoBuf)
	if err != nil {
		tx.recordBufWaits()
		return err
	}
	tx.undoBuf = buf
	rtok := tx.tc.Enter("row.update")
	err = t.UpdateTxn(tx.s.h, uint64(tx.id), key, row)
	tx.recordBufWaits()
	tx.tc.Exit(rtok)
	if err != nil {
		tx.undoBuf = tx.undoBuf[:base]
		return err
	}
	tx.undo = append(tx.undo, undoEntry{t: t, op: redoUpdate, key: key, oldOff: base, oldLen: len(buf) - base})
	tx.appendRedo(redoUpdate, t.Space(), key, row)
	return nil
}

// Delete removes the row under key with an exclusive lock.
func (tx *Txn) Delete(t *storage.Table, key uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	tok := tx.tc.Enter("exec.delete")
	defer tx.tc.Exit(tok)
	if err := tx.lockRecord(t, key, lock.Exclusive); err != nil {
		return err
	}
	base := len(tx.undoBuf)
	buf, err := t.GetInto(tx.s.h, key, tx.undoBuf)
	if err != nil {
		tx.recordBufWaits()
		return err
	}
	tx.undoBuf = buf
	rtok := tx.tc.Enter("row.delete")
	err = t.DeleteTxn(tx.s.h, uint64(tx.id), key)
	tx.recordBufWaits()
	tx.tc.Exit(rtok)
	if err != nil {
		tx.undoBuf = tx.undoBuf[:base]
		return err
	}
	tx.undo = append(tx.undo, undoEntry{t: t, op: redoDelete, key: key, oldOff: base, oldLen: len(buf) - base})
	tx.appendRedo(redoDelete, t.Space(), key, nil)
	return nil
}

// scanTS returns the frozen read timestamp for this transaction's scans
// under Config.SnapshotScans, registering it with the clock on first
// use (released when the transaction finishes).
func (tx *Txn) scanTS() uint64 {
	if !tx.snapReg {
		tx.snapTS = tx.s.db.clock.BeginRead()
		tx.snapReg = true
	}
	return tx.snapTS
}

func (tx *Txn) endSnapshot() {
	if tx.snapReg {
		tx.s.db.clock.EndRead(tx.snapTS)
		tx.snapReg = false
	}
}

// Scan iterates keys in [lo, hi] ascending. It takes no range locks, so
// it never blocks writers and phantoms are possible across scans.
//
// Its isolation is Config.ScanIsolation:
//
//   - ReadCommitted (default): the scan streams the newest state with
//     no frozen timestamp. Each row image is individually
//     latch-consistent, but rows committed, deleted, or moved mid-scan
//     may or may not appear — the scan as a whole is NOT a single
//     point-in-time view. The transaction's own prior writes ARE
//     visible (as are, because the scan takes no locks, other
//     transactions' not-yet-committed writes).
//   - SnapshotScans: the scan reads exactly the state committed at the
//     transaction's scan timestamp (frozen at its first scan). The
//     transaction's own uncommitted writes are NOT visible to the scan.
func (tx *Txn) Scan(t *storage.Table, lo, hi uint64, fn func(key uint64, row []byte) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	tok := tx.tc.Enter("exec.scan")
	defer tx.tc.Exit(tok)
	var err error
	if tx.s.db.cfg.ScanIsolation == SnapshotScans {
		err = t.SnapshotScan(tx.s.h, lo, hi, tx.scanTS(), fn)
	} else {
		err = t.Scan(tx.s.h, lo, hi, fn)
	}
	tx.recordBufWaits()
	return err
}

// IndexScan iterates rows whose secondary key (per the named index)
// falls in [lo, hi], ascending by secondary key. Isolation follows
// Config.ScanIsolation exactly as for Scan, with one extra caveat under
// SnapshotScans: a row whose index key was CHANGED by a transaction
// that committed after the scan timestamp but before the scan started
// can be missed under its old key (the posting was already removed);
// false positives never occur (keys are re-derived from the visible
// version).
func (tx *Txn) IndexScan(t *storage.Table, index string, lo, hi uint64, fn func(pk uint64, row []byte) bool) error {
	if err := tx.check(); err != nil {
		return err
	}
	tok := tx.tc.Enter("exec.scan")
	defer tx.tc.Exit(tok)
	var err error
	if tx.s.db.cfg.ScanIsolation == SnapshotScans {
		err = t.SnapshotIndexScan(tx.s.h, index, lo, hi, tx.scanTS(), fn)
	} else {
		err = t.IndexScan(tx.s.h, index, lo, hi, fn)
	}
	tx.recordBufWaits()
	return err
}

// appendRedo encodes one redo record into the transaction's local
// buffer. The WAL sees nothing until Commit hands it the whole batch.
func (tx *Txn) appendRedo(op byte, space uint32, key uint64, row []byte) {
	tok := tx.tc.Enter("wal.append")
	tx.wrote = true
	tx.redo = encodeRedoInto(tx.redo, op, space, key, row)
	tx.redoEnds = append(tx.redoEnds, len(tx.redo))
	tx.tc.Exit(tok)
}

// releaseRedo returns the redo and undo buffers to the session for
// reuse by the next transaction. Safe after AppendBatch: the WAL copies
// payloads.
func (tx *Txn) releaseRedo() {
	tx.s.spareRedo, tx.redo = tx.redo, nil
	tx.s.spareEnds, tx.redoEnds = tx.redoEnds, nil
	tx.s.spareUndo, tx.undo = tx.undo, nil
	tx.s.spareUndoBuf, tx.undoBuf = tx.undoBuf, nil
}

// Commit makes the transaction durable per the flush policy and releases
// its locks.
func (tx *Txn) Commit() error {
	if err := tx.check(); err != nil {
		return err
	}
	tx.done = true
	var err error
	if tx.wrote {
		// Seal the batch with the commit marker and hand the whole
		// transaction to the WAL in one call: one lock acquisition per
		// transaction instead of one per statement.
		tx.appendRedo(redoCommit, 0, 0, nil)
		views := tx.s.spareViews[:0]
		start := 0
		for _, end := range tx.redoEnds {
			views = append(views, tx.redo[start:end])
			start = end
		}
		tok := tx.tc.Enter("commit")
		// Register with the checkpoint registry BEFORE the append: an
		// online checkpoint truncating the log must keep every record of
		// a transaction whose commit timestamp lands above its snapshot,
		// and the bound must be claimed before the records exist.
		tx.s.db.ckptReg.register(uint64(tx.id), tx.s.db.log.NextLSN()+1)
		if _, aerr := tx.s.db.log.AppendBatch(uint64(tx.id), views); aerr != nil {
			err = aerr
		} else {
			ftok := tx.tc.Enter("log.flush")
			err = tx.s.db.log.Commit(uint64(tx.id))
			tx.tc.Exit(ftok)
		}
		tx.tc.Exit(tok)
		for i := range views {
			views[i] = nil
		}
		tx.s.spareViews = views[:0]
		// Stamp every written version with the commit timestamp. This
		// runs after the WAL decided the transaction's fate but even on a
		// WAL error, because the data changes stay applied (historical
		// semantics) and a leaked uncommitted marker would pin chain walks
		// forever. Stamping precedes Complete, so no snapshot reader can
		// hold a read timestamp >= cts while any marker remains; it also
		// precedes lock release, so the keys are still exclusively ours.
		cts := tx.s.db.clock.Allocate()
		for i := range tx.undo {
			u := &tx.undo[i]
			u.t.StampCommit(uint64(tx.id), u.key, cts)
		}
		tx.s.db.clock.Complete(cts)
		tx.cts = cts
		// Every version is stamped: the registry entry may now be
		// pruned (or retained with its cts while a checkpoint streams).
		tx.s.db.ckptReg.complete(uint64(tx.id), cts)
	}
	tx.endSnapshot()
	tx.releaseRedo()
	tx.s.db.locks.ReleaseAll(tx.id)
	tx.flushWaitSamples()
	tx.s.db.obs.Tracer.End(tx.tc, err != nil)
	if err != nil {
		tx.s.db.met.Abort(time.Since(tx.birth))
		return fmt.Errorf("engine: commit: %w", err)
	}
	tx.s.db.met.Commit(time.Since(tx.birth))
	return nil
}

// Prepare seals this participant's write set durably in the WAL without
// committing — phase one of two-phase commit. The writes and a prepare
// marker carrying the caller's global transaction id travel as ONE
// forced-durable batch, so after a crash the prepared write set is
// either fully recoverable or fully absent, never torn. Locks and undo
// state stay live: the coordinator finishes the transaction with
// CommitPrepared once a decision record is durable (DB.LogDecision) or
// with Rollback on abort. Aborts after Prepare need no abort record —
// recovery presumes abort for any prepared transaction whose gtid has
// no durable decision. Read-only participants prepare trivially without
// touching the WAL.
func (tx *Txn) Prepare(gtid uint64) error {
	if err := tx.check(); err != nil {
		return err
	}
	if tx.prepared {
		return nil
	}
	if tx.wrote {
		tx.appendRedo(redoPrepare, 0, gtid, nil)
		// The prepare batch must survive checkpoint truncation until the
		// transaction resolves; keep-first registration means the later
		// CommitPrepared append cannot raise this bound.
		tx.s.db.ckptReg.register(uint64(tx.id), tx.s.db.log.NextLSN()+1)
		views := tx.s.spareViews[:0]
		start := 0
		for _, end := range tx.redoEnds {
			views = append(views, tx.redo[start:end])
			start = end
		}
		tok := tx.tc.Enter("commit")
		_, err := tx.s.db.log.AppendBatch(uint64(tx.id), views)
		if err == nil {
			ftok := tx.tc.Enter("log.flush")
			// Prepare is always forced durable, whatever the flush
			// policy: the commit decision may only be logged once every
			// participant's prepare survives any crash.
			err = tx.s.db.log.CommitSync(uint64(tx.id))
			tx.tc.Exit(ftok)
		}
		tx.tc.Exit(tok)
		for i := range views {
			views[i] = nil
		}
		tx.s.spareViews = views[:0]
		if err != nil {
			return fmt.Errorf("engine: prepare: %w", err)
		}
		// The write set is sealed; the commit marker (if the decision is
		// commit) goes out later as its own batch in CommitPrepared.
		tx.redo = tx.redo[:0]
		tx.redoEnds = tx.redoEnds[:0]
	}
	tx.prepared = true
	return nil
}

// CommitPrepared runs phase two of two-phase commit on this participant:
// it appends the commit marker at the policy's normal durability (the
// forced-durable decision record already settled the outcome), stamps
// the written versions, and releases locks. Only valid after Prepare.
func (tx *Txn) CommitPrepared() error {
	if !tx.prepared {
		return ErrNotPrepared
	}
	return tx.Commit()
}

// RecordQueueWait attributes d of partition-executor queue wait to this
// transaction's capture, feeding the part.queue_wait factor of the live
// variance attribution.
func (tx *Txn) RecordQueueWait(d time.Duration) {
	tx.tc.Record(obs.FactorQueueWait, d)
}

// Record2PC attributes d of cross-partition commit coordination (the
// prepare/decide/commit round) to the part.xpart_2pc factor.
func (tx *Txn) Record2PC(d time.Duration) {
	tx.tc.Record(obs.Factor2PC, d)
}

// RecordNetQueueWait attributes d of network admission-queue wait to
// this transaction's capture, feeding the net.queue_wait
// factor of the live variance attribution — the server's analogue of
// RecordQueueWait for the front-door ready queue.
func (tx *Txn) RecordNetQueueWait(d time.Duration) {
	tx.tc.Record(obs.FactorNetQueueWait, d)
}

// RecordNetShed attributes d of time this logical unit of work
// previously lost to admission-control shedding (queue wait of shed
// attempts on the same connection) to the net.shed factor.
func (tx *Txn) RecordNetShed(d time.Duration) {
	tx.tc.Record(obs.FactorNetShed, d)
}

// Rollback undoes the transaction's writes and releases its locks. It is
// safe to call on a finished transaction (no-op).
func (tx *Txn) Rollback() {
	if tx.done {
		return
	}
	tx.done = true
	// Apply undo in reverse. We still hold exclusive locks on every
	// written key, so these compensating writes are isolated. The undo
	// writes run under the transaction's own write marker (no commit
	// timestamps are ever allocated for an abort), then StampAbort pops
	// each key's chain head — the pre-transaction version — back inline.
	wid := uint64(tx.id)
	for i := len(tx.undo) - 1; i >= 0; i-- {
		u := tx.undo[i]
		old := tx.undoBuf[u.oldOff : u.oldOff+u.oldLen]
		switch u.op {
		case redoInsert:
			_ = u.t.DeleteTxn(tx.s.h, wid, u.key)
		case redoUpdate:
			_ = u.t.UpdateTxn(tx.s.h, wid, u.key, old)
		case redoDelete:
			_ = u.t.InsertTxn(tx.s.h, wid, u.key, old)
		}
	}
	for i := range tx.undo {
		u := &tx.undo[i]
		u.t.StampAbort(wid, u.key)
	}
	tx.endSnapshot()
	tx.releaseRedo()
	// An aborted transaction's records need no truncation protection:
	// recovery presumes abort without a commit marker or decision.
	tx.s.db.ckptReg.drop(uint64(tx.id))
	tx.s.db.locks.ReleaseAll(tx.id)
	tx.s.db.obs.Tracer.End(tx.tc, true)
	tx.s.db.met.Abort(time.Since(tx.birth))
}

// encodeRedo serializes a redo record:
// op(1) | space(4) | key(8) | rowLen(4) | row.
func encodeRedo(op byte, space uint32, key uint64, row []byte) []byte {
	return encodeRedoInto(make([]byte, 0, 17+len(row)), op, space, key, row)
}

// encodeRedoInto appends an encoded redo record to buf, reusing its
// capacity — the allocation-free form the per-statement hot path uses.
func encodeRedoInto(buf []byte, op byte, space uint32, key uint64, row []byte) []byte {
	var hdr [17]byte
	hdr[0] = op
	binary.LittleEndian.PutUint32(hdr[1:], space)
	binary.LittleEndian.PutUint64(hdr[5:], key)
	binary.LittleEndian.PutUint32(hdr[13:], uint32(len(row)))
	buf = append(buf, hdr[:]...)
	return append(buf, row...)
}

func decodeRedo(b []byte) (op byte, space uint32, key uint64, row []byte, err error) {
	if len(b) < 17 {
		return 0, 0, 0, nil, errors.New("engine: short redo record")
	}
	op = b[0]
	space = binary.LittleEndian.Uint32(b[1:])
	key = binary.LittleEndian.Uint64(b[5:])
	n := int(binary.LittleEndian.Uint32(b[13:]))
	if len(b) < 17+n {
		return 0, 0, 0, nil, errors.New("engine: truncated redo record")
	}
	if n > 0 {
		row = b[17 : 17+n]
	}
	return op, space, key, row, nil
}
