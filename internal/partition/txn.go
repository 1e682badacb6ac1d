package partition

import (
	"fmt"
	"sort"
	"time"

	"vats/internal/engine"
	"vats/internal/storage"
)

// Ref names one row a transaction will touch: the router classifies a
// transaction single- vs multi-partition from its Ref set before any
// work runs. Refs on replicated tables never add a participant.
type Ref struct {
	Table *Table
	Key   uint64
}

// Txn is a routed transaction. For a single-partition transaction it
// wraps one engine transaction on the home partition; for a multi-
// partition transaction it wraps one engine transaction per declared
// participant, finished by two-phase commit. Operations on keys outside
// the declared partition set fail with ErrMisrouted — the router never
// silently widens a running transaction.
type Txn struct {
	db    *DB
	home  int // executing partition for single-partition txns, else -1
	first int // lowest participant (replicated reads route here) for multi

	single *engine.Txn
	multi  []*engine.Txn // indexed by partition; nil where not a participant
}

// at resolves the engine transaction for partition p.
func (tx *Txn) at(p int) (*engine.Txn, error) {
	if tx.single != nil {
		if p != tx.home {
			return nil, fmt.Errorf("%w: key on partition %d, transaction classified to partition %d",
				ErrMisrouted, p, tx.home)
		}
		return tx.single, nil
	}
	if p >= 0 && p < len(tx.multi) && tx.multi[p] != nil {
		return tx.multi[p], nil
	}
	return nil, fmt.Errorf("%w: partition %d is not a declared participant", ErrMisrouted, p)
}

// route resolves the engine transaction and shard for a primary key.
func (tx *Txn) route(t *Table, key uint64) (*engine.Txn, *storage.Table, error) {
	p := t.partitionOf(key)
	if p < 0 { // replicated: read locally on the executing/home partition
		if tx.single != nil {
			p = tx.home
		} else {
			p = tx.first
		}
	}
	etx, err := tx.at(p)
	if err != nil {
		return nil, nil, err
	}
	return etx, t.shards[p], nil
}

// Partition returns the home partition for single-partition
// transactions and -1 for multi-partition ones.
func (tx *Txn) Partition() int {
	if tx.single != nil {
		return tx.home
	}
	return -1
}

// Get reads the row under key with a shared lock on its partition.
func (tx *Txn) Get(t *Table, key uint64) ([]byte, error) {
	etx, st, err := tx.route(t, key)
	if err != nil {
		return nil, err
	}
	return etx.Get(st, key)
}

// GetForUpdate reads the row under key with an exclusive lock.
func (tx *Txn) GetForUpdate(t *Table, key uint64) ([]byte, error) {
	etx, st, err := tx.route(t, key)
	if err != nil {
		return nil, err
	}
	return etx.GetForUpdate(st, key)
}

// Insert adds a row on the key's partition.
func (tx *Txn) Insert(t *Table, key uint64, row []byte) error {
	if t.keyOf == nil {
		return ErrReplicatedWrite
	}
	etx, st, err := tx.route(t, key)
	if err != nil {
		return err
	}
	return etx.Insert(st, key, row)
}

// Update replaces the row on the key's partition.
func (tx *Txn) Update(t *Table, key uint64, row []byte) error {
	if t.keyOf == nil {
		return ErrReplicatedWrite
	}
	etx, st, err := tx.route(t, key)
	if err != nil {
		return err
	}
	return etx.Update(st, key, row)
}

// Delete removes the row on the key's partition.
func (tx *Txn) Delete(t *Table, key uint64) error {
	if t.keyOf == nil {
		return ErrReplicatedWrite
	}
	etx, st, err := tx.route(t, key)
	if err != nil {
		return err
	}
	return etx.Delete(st, key)
}

// Scan iterates keys in [lo, hi] on one partition. Both endpoints must
// resolve to the same partition, and the range must lie within that
// partition's key space under the table's extractor (true for prefix-
// packed keys like TPC-C's warehouse prefixes).
func (tx *Txn) Scan(t *Table, lo, hi uint64, fn func(key uint64, row []byte) bool) error {
	plo, phi := t.partitionOf(lo), t.partitionOf(hi)
	if plo != phi {
		return fmt.Errorf("%w: [%d, %d] on %q", ErrCrossPartitionScan, lo, hi, t.name)
	}
	if plo < 0 {
		if tx.single != nil {
			plo = tx.home
		} else {
			plo = tx.first
		}
	}
	etx, err := tx.at(plo)
	if err != nil {
		return err
	}
	return etx.Scan(t.shards[plo], lo, hi, fn)
}

// IndexScan iterates rows whose secondary key falls in [lo, hi] on one
// partition, classified through the index's registered partition-key
// extractor.
func (tx *Txn) IndexScan(t *Table, index string, lo, hi uint64, fn func(pk uint64, row []byte) bool) error {
	plo, err := t.indexPartitionOf(index, lo)
	if err != nil {
		return err
	}
	phi, err := t.indexPartitionOf(index, hi)
	if err != nil {
		return err
	}
	if plo != phi {
		return fmt.Errorf("%w: index %q [%d, %d] on %q", ErrCrossPartitionScan, index, lo, hi, t.name)
	}
	if plo < 0 {
		if tx.single != nil {
			plo = tx.home
		} else {
			plo = tx.first
		}
	}
	etx, err := tx.at(plo)
	if err != nil {
		return err
	}
	return etx.IndexScan(t.shards[plo], index, lo, hi, fn)
}

// job is one single-partition transaction queued for an executor.
type job struct {
	tag  string
	fn   func(*Txn) error
	enq  time.Time
	done chan error
}

// Run classifies the transaction from its declared Refs and executes
// it: one declared partition (or none — pure replicated reads default
// to partition 0) dispatches the whole closure to that partition's
// executor queue; two or more run inline under two-phase commit.
// Deadlock/timeout victims are retried internally with their original
// age preserved (VATS sees the logical transaction's birth). fn may run
// multiple times and on a different goroutine than the caller.
func (db *DB) Run(tag string, refs []Ref, fn func(tx *Txn) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	var buf [8]int
	parts := buf[:0]
	for _, r := range refs {
		p := r.Table.partitionOf(r.Key)
		if p < 0 {
			continue
		}
		seen := false
		for _, q := range parts {
			if q == p {
				seen = true
				break
			}
		}
		if !seen {
			parts = append(parts, p)
		}
	}
	if len(parts) == 0 {
		parts = append(parts, 0)
	}
	if len(parts) == 1 {
		return db.runQueued(parts[0], tag, fn)
	}
	sort.Ints(parts)
	return db.runMulti(parts, tag, fn)
}

// runQueued dispatches a single-partition transaction to its home
// executor queue and waits for the outcome.
func (db *DB) runQueued(p int, tag string, fn func(*Txn) error) error {
	j := &job{tag: tag, fn: fn, enq: time.Now(), done: make(chan error, 1)}
	db.met.Enqueued(p)
	select {
	case db.queues[p] <- j:
	case <-db.stop:
		return ErrClosed
	}
	return <-j.done
}

// worker is one executor goroutine: it owns a session on its partition
// and drains the partition's queue until shutdown.
func (db *DB) worker(p int) {
	defer db.wg.Done()
	s := db.parts[p].NewSession()
	for {
		select {
		case j := <-db.queues[p]:
			j.done <- db.runSingle(s, p, j)
		case <-db.stop:
			return
		}
	}
}

// runSingle executes one queued transaction on its home partition with
// the internal retry loop. The engine transaction's birth is the
// ENQUEUE time, so VATS scheduling and latency attribution both see
// queue wait as part of the transaction's age.
func (db *DB) runSingle(s *engine.Session, p int, j *job) error {
	wait := time.Since(j.enq)
	db.met.Dequeued(p, wait)
	for attempt := 0; ; attempt++ {
		etx := s.BeginAt(j.enq)
		etx.SetTag(j.tag)
		if attempt == 0 {
			etx.RecordQueueWait(wait)
		}
		ptx := &Txn{db: db, home: p, single: etx}
		err := j.fn(ptx)
		if err == nil {
			err = etx.Commit()
		} else {
			etx.Rollback()
		}
		if err == nil {
			db.singleN.Add(1)
			db.perPart[p].Add(1)
			return nil
		}
		if !engine.IsRetryable(err) || attempt >= db.opts.MaxRetries {
			return err
		}
	}
}

// runMulti coordinates a multi-partition transaction with retries.
func (db *DB) runMulti(parts []int, tag string, fn func(*Txn) error) error {
	birth := time.Now()
	for attempt := 0; ; attempt++ {
		err := db.tryMulti(parts, tag, birth, fn)
		if err == nil {
			db.multiN.Add(1)
			for _, p := range parts {
				db.perPart[p].Add(1)
			}
			return nil
		}
		if !engine.IsRetryable(err) || attempt >= db.opts.MaxRetries {
			db.abortN.Add(1)
			db.met.Abort2PC()
			return err
		}
	}
}

// tryMulti runs one attempt of a multi-partition transaction: begin a
// participant engine transaction on every declared partition, run the
// closure, then two-phase commit — ascending-order prepares (each
// forced durable with the write set in one WAL batch), one forced-
// durable decision record in the lowest participant's stream, then
// commit markers everywhere at the policy's normal durability. Any
// failure before the decision record rolls every participant back
// (presumed abort: recovery treats an undecided prepare as aborted, so
// no abort logging is needed).
func (db *DB) tryMulti(parts []int, tag string, birth time.Time, fn func(*Txn) error) error {
	ptx := &Txn{db: db, home: -1, first: parts[0], multi: make([]*engine.Txn, db.n)}
	sess := make([]*engine.Session, len(parts))
	for i, p := range parts {
		s := db.session(p)
		sess[i] = s
		etx := s.BeginAt(birth)
		etx.SetTag(tag)
		ptx.multi[p] = etx
	}
	defer func() {
		for i, p := range parts {
			db.putSession(p, sess[i])
		}
	}()
	rollbackAll := func() {
		for _, p := range parts {
			ptx.multi[p].Rollback()
		}
	}

	if err := fn(ptx); err != nil {
		rollbackAll()
		return err
	}

	cstart := time.Now()
	gtid := db.gtid.Add(1)
	for _, p := range parts {
		if err := ptx.multi[p].Prepare(gtid); err != nil {
			rollbackAll()
			return err
		}
	}
	// The point of no return: once this decision record is durable, the
	// transaction commits on every participant even across a crash.
	if err := db.parts[parts[0]].LogDecision(gtid); err != nil {
		rollbackAll()
		return err
	}
	round := time.Since(cstart)
	var cerr error
	for _, p := range parts {
		etx := ptx.multi[p]
		etx.Record2PC(round)
		if err := etx.CommitPrepared(); err != nil && cerr == nil {
			// The decision is durable, so the transaction IS committed;
			// surface the commit-marker error without retrying (a retry
			// would double-apply).
			cerr = fmt.Errorf("partition: post-decision commit on %d: %w", p, err)
		}
	}
	db.met.Round2PC(time.Since(cstart))
	return cerr
}
