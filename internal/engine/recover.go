package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vats/internal/storage"
	"vats/internal/wal"
)

// Recover replays durable redo records into a fresh engine. Tables must
// already exist (schemas are not logged) and are matched by creation
// order, so recreate them in the same order as the crashed instance.
//
// If the log contains a complete fuzzy checkpoint (see Checkpoint),
// recovery restores its snapshot first — the checkpoint's own rows
// plus, for incremental checkpoints, the rows of every referenced base
// checkpoint — and then replays ALL committed transactions whose
// records survived truncation, in LSN order, idempotently:
//
//   - a transaction with cts ≤ the snapshot timestamp is already in
//     the snapshot; re-applying it is a no-op by value (per-key record
//     order equals commit order under strict 2PL, and truncation only
//     removes prefixes, so replay can never resurrect a stale value);
//   - a transaction with cts > the snapshot timestamp supplies the
//     changes the snapshot missed.
//
// A checkpoint is complete only when its begin marker survived, the
// snapshot rows it physically emitted match its end marker's declared
// count, AND every referenced base checkpoint still holds exactly the
// declared row count for the referenced table — with concurrent
// writers and parallel log streams a crash mid-checkpoint can persist
// any subset of the markers, and trusting a torn checkpoint would
// silently drop rows plus everything its truncation superseded.
// Incomplete checkpoints are skipped in favour of the newest complete
// one (or none). Records from in-flight or aborted transactions are
// ignored.
func (db *DB) Recover(entries []wal.Entry) error {
	return db.RecoverWith(entries, nil)
}

// ckptCandidate aggregates one checkpoint id's surviving markers and
// rows for completeness validation.
type ckptCandidate struct {
	id       uint64
	hasBegin bool
	beginLSN wal.LSN
	end      wal.LSN // 0 until the end marker is seen
	declared uint64
	ownRows  uint64
	refs     []ckptRef
	// rowsBySpace counts surviving physically-emitted rows per space,
	// for validating refs that point at this checkpoint.
	rowsBySpace map[uint32]uint64
}

type ckptRef struct {
	space  uint32
	baseID uint64
	count  uint64
}

// RecoverWith is Recover with an external commit-decision oracle for
// prepared transactions: a transaction with a durable prepare marker but
// no local commit marker is replayed iff decided reports its gtid as
// committed (presumed abort otherwise). A nil decided treats every
// undecided prepare as aborted.
func (db *DB) RecoverWith(entries []wal.Entry, decided func(gtid uint64) bool) error {
	// Pass 1: aggregate checkpoint markers and commit decisions.
	cands := make(map[uint64]*ckptCandidate)
	cand := func(id uint64) *ckptCandidate {
		c, ok := cands[id]
		if !ok {
			c = &ckptCandidate{id: id, rowsBySpace: make(map[uint32]uint64)}
			cands[id] = c
		}
		return c
	}
	committed := make(map[uint64]bool)
	for _, e := range entries {
		op, space, key, row, err := decodeRedo(e.Payload)
		if err != nil {
			return fmt.Errorf("engine: recover: %w", err)
		}
		switch op {
		case redoCkptBegin:
			c := cand(e.Txn)
			c.hasBegin, c.beginLSN = true, e.LSN
		case redoCkptRow:
			c := cand(e.Txn)
			c.ownRows++
			c.rowsBySpace[space]++
		case redoCkptRef:
			if len(row) == 8 {
				cand(e.Txn).refs = append(cand(e.Txn).refs,
					ckptRef{space: space, baseID: key, count: binary.LittleEndian.Uint64(row)})
			}
		case redoCkptEnd:
			c := cand(e.Txn)
			c.end, c.declared = e.LSN, key
		case redoCommit:
			committed[e.Txn] = true
		case redoDecide:
			// The recovered log carries 2PC decisions: future checkpoints
			// must run the decide-preservation scan.
			db.hasDecisions.Store(true)
		case redoPrepare:
			// In-doubt resolution: a prepared write set commits iff the
			// coordinator's decision for its gtid (the key field) is
			// durable somewhere. The decision was logged only after every
			// participant's prepare was forced durable, so this rule gives
			// the same all-or-nothing answer on every partition.
			if decided != nil && decided(key) {
				committed[e.Txn] = true
			}
		}
	}

	// Pick the newest complete checkpoint: begin marker present, own
	// physically-emitted rows match the declared count, every ref's
	// base rows fully survived.
	var chosen *ckptCandidate
	for _, c := range cands {
		if c.end == 0 || !c.hasBegin || c.ownRows != c.declared {
			continue
		}
		ok := true
		for _, r := range c.refs {
			base := cands[r.baseID]
			if base == nil || r.count == 0 || base.rowsBySpace[r.space] != r.count {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if chosen == nil || c.end > chosen.end {
			chosen = c
		}
	}

	s := db.NewSession()
	// Replay streams are long runs of records against the same table;
	// cache the last space resolution.
	var lastSpace uint32
	var lastTable *storage.Table
	resolve := func(space uint32) (*storage.Table, error) {
		if lastTable != nil && space == lastSpace {
			return lastTable, nil
		}
		t, ok := db.tableBySpace(space)
		if !ok {
			return nil, fmt.Errorf("engine: recover: unknown space %d", space)
		}
		lastSpace, lastTable = space, t
		return t, nil
	}

	// Phase 1: restore the snapshot — the chosen checkpoint's own rows
	// plus referenced base rows (resolved from the base's surviving
	// records). Spaces are disjoint between own rows and refs, so order
	// between them is irrelevant.
	if chosen != nil {
		refSpaces := make(map[uint32]uint64, len(chosen.refs)) // space → baseID
		for _, r := range chosen.refs {
			refSpaces[r.space] = r.baseID
		}
		for _, e := range entries {
			op, space, key, row, err := decodeRedo(e.Payload)
			if err != nil || op != redoCkptRow {
				continue
			}
			use := e.Txn == chosen.id
			if !use {
				if baseID, ok := refSpaces[space]; ok && e.Txn == baseID {
					use = true
				}
			}
			if !use {
				continue
			}
			t, terr := resolve(space)
			if terr != nil {
				return terr
			}
			if err := t.Insert(s.h, key, row); err != nil {
				return fmt.Errorf("engine: recover snapshot %d/%d: %w", space, key, err)
			}
		}
	}

	// Phase 2: replay every committed transaction's surviving records
	// in LSN order, idempotently (see the method comment for why no
	// LSN filter is correct under a fuzzy checkpoint).
	for _, e := range entries {
		if !committed[e.Txn] {
			continue
		}
		op, space, key, row, err := decodeRedo(e.Payload)
		if err != nil {
			return fmt.Errorf("engine: recover: %w", err)
		}
		switch op {
		case redoInsert, redoUpdate, redoDelete:
		default:
			continue
		}
		t, terr := resolve(space)
		if terr != nil {
			return terr
		}
		if err := applyIdempotent(s, t, op, key, row); err != nil {
			return fmt.Errorf("engine: recover replay %d/%d: %w", space, key, err)
		}
	}
	return nil
}

// applyIdempotent applies one redo op so that replaying a change whose
// effect is already present (because the fuzzy snapshot included it)
// converges instead of failing: an insert of an existing key becomes an
// update, an update of a missing key an insert, a delete of a missing
// key a no-op.
func applyIdempotent(s *Session, t *storage.Table, op byte, key uint64, row []byte) error {
	switch op {
	case redoInsert:
		err := t.Insert(s.h, key, row)
		if errors.Is(err, storage.ErrDuplicateKey) {
			return t.Update(s.h, key, row)
		}
		return err
	case redoUpdate:
		err := t.Update(s.h, key, row)
		if errors.Is(err, storage.ErrKeyNotFound) {
			return t.Insert(s.h, key, row)
		}
		return err
	case redoDelete:
		err := t.Delete(s.h, key)
		if errors.Is(err, storage.ErrKeyNotFound) {
			return nil
		}
		return err
	default:
		return fmt.Errorf("engine: recover: bad op %d", op)
	}
}
