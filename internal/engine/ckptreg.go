package engine

import (
	"sync"

	"vats/internal/mvcc"
	"vats/internal/wal"
)

// ckptRegistry tracks transactions that are appending to the WAL while
// an online checkpoint may be streaming. Its one job is to give the
// checkpointer a safe log-truncation bound: a transaction that commits
// with cts > the checkpoint's snapshot timestamp is NOT covered by the
// snapshot, so every one of its log records must survive truncation —
// including records it appended *before* the checkpoint's begin marker.
//
// Protocol: a writing transaction registers (id → lower bound on where
// its records will land, read from the WAL's LSN allocator before its
// AppendBatch) and completes with its commit timestamp after version
// stamping. Registration is keep-first: a prepared transaction's bound
// covers its prepare batch and must not be raised by the later
// commit-marker append.
//
// Pruning rule: a completed entry may be forgotten only once its cts is
// at or below the clock's contiguous watermark — snapshot timestamps
// are watermark reads, and the watermark is monotone, so every FUTURE
// checkpoint snapshot is then guaranteed to contain the transaction.
// Dropping on completion alone is unsound: commits complete out of
// order, and a cts stranded above the watermark (an older allocation
// still in flight) is exactly the transaction the next snapshot will
// miss. While a checkpoint is streaming (ckptOn) nothing is pruned at
// all, so the truncation-bound computation cannot race an eviction.
//
// A commit whose cts the watermark already covers deletes its own entry
// and touches nothing else. The map is swept only once the watermark has
// reached minKept, the smallest cts of a completed entry the rule kept:
// before that no completed entry can be prunable, so the commit path
// does not scan the map.
type ckptRegistry struct {
	clock *mvcc.Clock

	mu     sync.Mutex
	active map[uint64]*regEntry
	// ckptOn freezes entry pruning while a checkpoint is streaming.
	ckptOn bool
	// minKept is at most the smallest cts of a completed entry in
	// active; 0 when there is none.
	minKept uint64
}

type regEntry struct {
	bound wal.LSN // lowest LSN any of this txn's records can occupy
	cts   uint64  // commit timestamp; 0 while in flight
}

func newCkptRegistry(clock *mvcc.Clock) *ckptRegistry {
	return &ckptRegistry{clock: clock, active: make(map[uint64]*regEntry)}
}

// register records that txn id is about to append records at LSN ≥
// bound. Keep-first: re-registration (CommitPrepared after Prepare)
// must not raise the bound above the prepare batch.
func (r *ckptRegistry) register(id uint64, bound wal.LSN) {
	r.mu.Lock()
	if _, ok := r.active[id]; !ok {
		r.active[id] = &regEntry{bound: bound}
	}
	r.mu.Unlock()
}

// sweepLocked drops every completed entry the watermark has passed and
// recomputes minKept. Caller holds r.mu and has checked !r.ckptOn.
func (r *ckptRegistry) sweepLocked() {
	wm := r.clock.ReadTS()
	r.minKept = 0
	for id, e := range r.active {
		switch {
		case e.cts == 0:
		case e.cts <= wm:
			delete(r.active, id)
		case r.minKept == 0 || e.cts < r.minKept:
			r.minKept = e.cts
		}
	}
}

// maybeSweepLocked sweeps once the watermark may have passed a kept
// completed entry. Caller holds r.mu.
func (r *ckptRegistry) maybeSweepLocked() {
	if !r.ckptOn && r.minKept != 0 && r.minKept <= r.clock.ReadTS() {
		r.sweepLocked()
	}
}

// complete marks txn id fully stamped at cts. An entry whose cts the
// watermark has already passed is dropped at once; otherwise it is kept
// until a later complete, drop, or endCkpt finds the watermark caught
// up (and kept entries from earlier out-of-order completions are swept
// when it has).
func (r *ckptRegistry) complete(id uint64, cts uint64) {
	r.mu.Lock()
	if e, ok := r.active[id]; ok {
		if !r.ckptOn && cts <= r.clock.ReadTS() {
			delete(r.active, id)
		} else {
			e.cts = cts
			if r.minKept == 0 || cts < r.minKept {
				r.minKept = cts
			}
		}
	}
	r.maybeSweepLocked()
	r.mu.Unlock()
}

// drop removes txn id (rollback: its records never entered the log, or
// a prepared set that recovery will presume aborted).
func (r *ckptRegistry) drop(id uint64) {
	r.mu.Lock()
	delete(r.active, id)
	// A rollback can be the event that lets the watermark advance over
	// a stranded cts; sweep so completed entries do not outlive the gap
	// that stranded them.
	r.maybeSweepLocked()
	r.mu.Unlock()
}

// beginCkpt freezes pruning for the duration of a checkpoint. Must be
// called BEFORE the checkpoint takes its snapshot timestamp: any
// transaction completing after this point is retained, so the bound
// computation at truncation time cannot miss one that landed above the
// snapshot.
func (r *ckptRegistry) beginCkpt() {
	r.mu.Lock()
	r.ckptOn = true
	r.mu.Unlock()
}

// endCkpt unfreezes pruning and sweeps what the watermark allows.
// In-flight entries (cts 0 — including prepared, undecided
// transactions) and completed entries still above the watermark stay:
// the latter are precisely the transactions a future snapshot could
// miss.
func (r *ckptRegistry) endCkpt() {
	r.mu.Lock()
	r.ckptOn = false
	r.sweepLocked()
	r.mu.Unlock()
}

// lowBound returns the lowest record LSN that must survive truncation
// on behalf of registered transactions: those still in flight and
// those whose cts landed above the checkpoint's snapshot timestamp ts.
// ok is false when no registered transaction constrains the bound.
func (r *ckptRegistry) lowBound(ts uint64) (wal.LSN, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var low wal.LSN
	ok := false
	for _, e := range r.active {
		if e.cts != 0 && e.cts <= ts {
			continue // covered by the snapshot
		}
		if !ok || e.bound < low {
			low, ok = e.bound, true
		}
	}
	return low, ok
}
