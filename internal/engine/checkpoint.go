package engine

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"vats/internal/wal"
)

// Checkpoint records (the redo ops 5, 6, 9, 10; see txn.go for 1-4 and
// 7-8).
const (
	redoCkptRow byte = 5
	redoCkptEnd byte = 6
	// redoCkptBegin opens a fuzzy checkpoint; key carries the MVCC
	// snapshot timestamp the checkpoint's rows were read at.
	redoCkptBegin byte = 9
	// redoCkptRef makes an incremental checkpoint inherit one table's
	// rows from an earlier checkpoint instead of re-emitting them:
	// space names the table, key the base checkpoint's id, and the row
	// payload the expected row count (8-byte little-endian) — recovery
	// validates the referenced rows actually survived before trusting
	// the checkpoint.
	redoCkptRef byte = 10
)

// emitInfo remembers where a table's snapshot rows last physically
// landed in the log, so an incremental checkpoint can reference them
// instead of re-emitting.
type emitInfo struct {
	ckptID   uint64  // checkpoint that physically emitted the rows
	rows     uint64  // how many rows it emitted for this space
	firstLSN wal.LSN // LSN of the first of those rows
	ts       uint64  // snapshot timestamp the rows were read at
}

// Checkpoint writes an online fuzzy snapshot of every table into the
// log and truncates the records it supersedes, bounding recovery time
// and log size. It runs CONCURRENTLY with live writers — no quiescence
// is required or checked: the snapshot is an MVCC read at a frozen
// commit timestamp ts, streamed row by row while commits proceed. The
// log records the protocol as
//
//	[ckptBegin ts] rows... [ckptEnd declared-row-count]
//
// interleaved arbitrarily with live transactions' records. Recovery
// restores the snapshot and then replays every committed transaction
// whose records survived truncation — transactions with cts ≤ ts are
// replayed idempotently over the snapshot (their effects are already
// in it), those with cts > ts supply everything the snapshot missed.
//
// The truncation bound is the oldest record still needed: the begin
// marker, any record of a transaction still in flight (or committed
// above ts) at truncation time per the checkpoint registry, and — for
// incremental checkpoints — the referenced base rows. Coordinator
// decide records below the bound are re-appended first so cross-
// partition recovery never loses a commit decision: every decision is
// retained, however long ago its participants applied it.
//
// It returns the checkpoint's id — the transaction id tagging its
// records — even when the checkpoint fails partway: its partial
// records may already be on a device, and log auditors need to
// attribute them. A failed or crash-interrupted checkpoint is harmless
// at recovery: without a complete, count-validated marker set it is
// ignored in favour of the previous complete checkpoint.
func (db *DB) Checkpoint() (uint64, error) {
	return db.checkpoint(false)
}

// CheckpointIncremental is Checkpoint in incremental mode: a table no
// commit has touched since its rows last physically entered the log
// (certified by the table's LastCommitTS against the base emission's
// snapshot timestamp) is not re-emitted — the checkpoint records a
// reference to the earlier checkpoint's rows and the truncation bound
// keeps those rows alive.
func (db *DB) CheckpointIncremental() (uint64, error) {
	return db.checkpoint(true)
}

func (db *DB) checkpoint(incremental bool) (uint64, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// A fresh txn id tags this checkpoint's records so recovery can
	// associate its rows with its markers.
	ckptID := db.nextTxn.Add(1)

	// Freeze registry pruning BEFORE taking the snapshot timestamp:
	// a transaction completing in between is retained either way, so
	// the truncation bound cannot miss it.
	db.ckptReg.beginCkpt()
	defer db.ckptReg.endCkpt()

	s := db.NewSession()
	snap := s.BeginSnapshot()
	defer snap.Close()
	ts := snap.ReadTS()

	beginLSN, err := db.log.Append(ckptID, encodeRedo(redoCkptBegin, 0, ts, nil))
	if err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint begin: %w", err)
	}

	cat := db.cat.Load()
	spaces := make([]uint32, 0, len(cat.bySpace))
	for space := range cat.bySpace {
		spaces = append(spaces, space)
	}
	sort.Slice(spaces, func(i, j int) bool { return spaces[i] < spaces[j] })

	// Stream snapshot rows, releasing every chunkRows to keep the WAL's
	// buffered set bounded. Release, not Commit: a chunk needs no
	// durability of its own (the final Flush before truncation is the
	// checkpoint's one barrier), and under EagerFlush a per-chunk
	// Commit would push an extra fsync round ahead of every live group
	// commit — measured as a multi-x commit p99 stall on the real-file
	// backend (see BenchmarkCheckpointCommitStall).
	// chunkRows bounds the checkpoint's uninterrupted slice of work:
	// after each chunk it releases the batches and yields (the pause
	// below), so a live commit never waits behind more than one small
	// chunk of encode+append+write — the lever that keeps concurrent
	// commit p99 near the checkpoint-free baseline even on a single
	// CPU, where the writer only runs when the checkpointer yields.
	const chunkRows = 32
	// Chunks are released (written, no barrier) individually; one
	// durability barrier covers every flushChunks of them (~100 KB of
	// page-cache dirt), bounding the final Flush. Intermediate
	// barriers are deliberately rare: under an eager-flush writer the
	// live group commits fsync the file continuously anyway, and every
	// extra checkpoint fsync is a window a commit can stall behind
	// (the guardrail BenchmarkCheckpointCommitStall freezes).
	const flushChunks = 64
	// chunkPause is the think time after each released chunk: the pacing
	// that keeps the checkpoint's device writes from monopolizing the log
	// stream against live group commits (the commit-stall guardrail).
	const chunkPause = 200 * time.Microsecond
	rows := uint64(0) // fresh rows physically emitted by THIS checkpoint
	sinceCommit := 0
	chunksSinceFlush := 0
	newEmit := make(map[uint32]emitInfo)
	refBound := wal.LSN(0) // oldest referenced base row that must survive
	for _, space := range spaces {
		t, ok := db.tableBySpace(space)
		if !ok {
			continue
		}
		if incremental {
			// Ref gate: the base rows were read at snapshot le.ts; they
			// stand in for THIS checkpoint's snapshot at ts iff no commit
			// in (le.ts, ts] wrote the table. LastCommitTS certifies that:
			// it is read after BeginSnapshot, and stamping happens-before
			// the watermark covers a cts, so every commit with cts ≤ ts
			// has already raised it. (A modification count bumped at
			// statement time cannot gate this: a write whose cts lands
			// above a snapshot inflates the count the snapshot records,
			// and the next pass would wrongly treat the table as clean
			// while truncation destroys the write's log records.)
			if le, ok := db.lastEmit[space]; ok && le.rows > 0 && t.LastCommitTS() <= le.ts {
				// Unchanged since its rows last hit the log: reference
				// them. Empty emissions are never referenced — zero
				// surviving rows is indistinguishable from rows lost to
				// truncation, so recovery could not validate the ref.
				var cnt [8]byte
				binary.LittleEndian.PutUint64(cnt[:], le.rows)
				if _, err := db.log.Append(ckptID, encodeRedo(redoCkptRef, space, le.ckptID, cnt[:])); err != nil {
					return ckptID, fmt.Errorf("engine: checkpoint ref %s: %w", t.Name(), err)
				}
				if refBound == 0 || le.firstLSN < refBound {
					refBound = le.firstLSN
				}
				newEmit[space] = le // carry the physical location forward
				continue
			}
		}
		var scanErr error
		cnt := uint64(0)
		var firstRow wal.LSN
		err := snap.Scan(t, 0, ^uint64(0), func(key uint64, row []byte) bool {
			lsn, err := db.log.Append(ckptID, encodeRedo(redoCkptRow, space, key, row))
			if err != nil {
				scanErr = err
				return false
			}
			if firstRow == 0 {
				firstRow = lsn
			}
			cnt++
			sinceCommit++
			if sinceCommit >= chunkRows {
				if err := db.log.Release(ckptID); err != nil {
					scanErr = err
					return false
				}
				chunksSinceFlush++
				if chunksSinceFlush >= flushChunks {
					if err := db.log.Flush(); err != nil {
						scanErr = err
						return false
					}
					chunksSinceFlush = 0
				}
				sinceCommit = 0
				time.Sleep(chunkPause)
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return ckptID, fmt.Errorf("engine: checkpoint %s: %w", t.Name(), err)
		}
		rows += cnt
		newEmit[space] = emitInfo{ckptID: ckptID, rows: cnt, firstLSN: firstRow, ts: ts}
	}

	if _, err := db.log.Append(ckptID, encodeRedo(redoCkptEnd, 0, rows, nil)); err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint end: %w", err)
	}
	// Make the snapshot durable, then drop everything it supersedes.
	// Both the release and the flush are error-checked: a truncation
	// after a failed flush would discard records that never became
	// durable. Flush alone is the barrier — it claims released
	// (written) and still-buffered batches alike and completes them.
	if err := db.log.Release(ckptID); err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint release: %w", err)
	}
	if err := db.log.Flush(); err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint flush: %w", err)
	}

	// Truncation bound: the begin marker, minus anything still pinned
	// by in-flight / above-ts transactions or referenced base rows.
	bound := beginLSN
	if regBound, ok := db.ckptReg.lowBound(ts); ok && regBound < bound {
		bound = regBound
	}
	if refBound != 0 && refBound < bound {
		bound = refBound
	}
	if err := db.preserveDecisions(bound); err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint decisions: %w", err)
	}
	if err := db.log.Truncate(bound); err != nil {
		return ckptID, fmt.Errorf("engine: checkpoint truncate: %w", err)
	}
	// Only a fully successful checkpoint updates the emit bookkeeping:
	// a failed one must not make a future incremental pass reference
	// rows that may never have become durable.
	db.lastEmit = newEmit
	return ckptID, nil
}

// preserveDecisions re-appends coordinator decide records that live
// below the truncation bound and are still needed, so a checkpoint can
// never erase the only durable copy of a two-phase-commit outcome. The
// re-appended copies land above the bound under fresh txn ids (the
// LogDecision path, forced durable).
func (db *DB) preserveDecisions(bound wal.LSN) error {
	// Single-engine deployments never log a decide record, and the scan
	// below is not free: RecoveredEntries materializes the whole durable
	// log by reading and decoding the device images, so running it once
	// per checkpoint costs device reads and heap. The flag is monotone
	// (set by LogDecision and by recovery when the recovered log carries
	// decides), so skipping while unset can never drop a decision.
	if !db.hasDecisions.Load() {
		return nil
	}
	seen := make(map[uint64]bool)
	for _, e := range db.log.RecoveredEntries() {
		if e.LSN >= bound {
			continue
		}
		op, _, gtid, _, err := decodeRedo(e.Payload)
		if err != nil || op != redoDecide || seen[gtid] {
			continue
		}
		seen[gtid] = true
		if err := db.LogDecision(gtid); err != nil {
			return err
		}
	}
	return nil
}
