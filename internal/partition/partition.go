// Package partition implements an N-way horizontally partitioned engine:
// each partition is an independent engine.DB with its own lock manager,
// buffer pool, and WAL stream(s), fronted by a router that classifies
// every transaction's key set up front. Single-partition transactions —
// the common case when the partitioning key matches the workload, e.g.
// TPC-C by warehouse — are dispatched whole to their partition's
// executor queue and run with no cross-partition coordination at all
// (the M/G/c queueing shape of the paper's VoltDB study: c workers per
// partition draining one FIFO queue). Multi-partition transactions
// run two-phase commit over the participants' WAL streams: a forced-
// durable prepare record in each participant's log, a forced-durable
// coordinator decision record, and presumed-abort recovery that resolves
// in-doubt transactions deterministically from the union of decision
// records across all partitions (see engine.RecoverWith).
//
// Tables are hash-partitioned by a declared partition-key extractor
// (partitionOf = keyOf(primaryKey) mod N); a nil extractor declares a
// replicated read-only table (H-Store style) loaded identically into
// every partition so any participant can read it locally.
package partition

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/obs"
	"vats/internal/storage"
	"vats/internal/wal"
)

// Options configures a partitioned engine.
type Options struct {
	// Partitions is the partition count N (default 1).
	Partitions int
	// Base is the per-partition engine configuration. Unless EngineFor
	// overrides it, each partition gets Base with a shifted Seed so
	// default devices are distinct.
	Base engine.Config
	// EngineFor, when set, derives partition p's engine configuration
	// from Base — the hook the torture harness uses to attach its fault-
	// injecting devices to every partition.
	EngineFor func(p int, base engine.Config) engine.Config
	// Dir, when non-empty, backs every partition's WAL with a real file
	// (Dir/partNNN.wal via disk.OpenFile) instead of the simulated
	// default device. The partitioned DB owns these files and closes
	// them on Close/Crash. Ignored when EngineFor is set — a derivation
	// hook supplies its own devices.
	Dir string
	// FileMode selects the file backend's durability mechanism when Dir
	// is set (default disk.FdatasyncPerSync).
	FileMode disk.SyncMode
	// Workers is the executor-goroutine count per partition (default
	// GOMAXPROCS/Partitions, floor 1).
	Workers int
	// QueueDepth bounds each partition's executor queue (default 256);
	// submitters block when the queue is full.
	QueueDepth int
	// MaxRetries bounds the internal deadlock/timeout retry loop the
	// executors and the 2PC coordinator run (default 25).
	MaxRetries int
}

// Errors.
var (
	// ErrClosed is returned once the partitioned engine is shut down.
	ErrClosed = engine.ErrClosed
	// ErrMisrouted means an operation touched a key outside the
	// transaction's declared partition set — the router classified the
	// transaction from its Refs, so the declaration was incomplete.
	ErrMisrouted = errors.New("partition: key outside transaction's declared partitions")
	// ErrReplicatedWrite rejects runtime writes to replicated tables
	// (they are loaded identically everywhere and only read thereafter).
	ErrReplicatedWrite = errors.New("partition: replicated tables are read-only at runtime")
	// ErrCrossPartitionScan rejects scan ranges whose endpoints resolve
	// to different partitions; ranges must lie within one partition's key
	// space under the table's extractor.
	ErrCrossPartitionScan = errors.New("partition: scan range spans partitions")
)

// DB is a running partitioned engine.
type DB struct {
	opts Options
	n    int

	parts []*engine.DB
	met   *obs.PartitionMetrics

	queues []chan *job
	stop   chan struct{}
	wg     sync.WaitGroup

	// gtid numbers cross-partition commit rounds; Recover resumes it
	// above every gtid seen in the recovered logs so fresh rounds can
	// never collide with stale decision records.
	gtid atomic.Uint64

	mu     sync.Mutex
	tables map[string]*Table

	// sessions pools coordinator sessions per partition for the
	// multi-partition path (executor workers own their sessions).
	sessions []sync.Pool

	singleN atomic.Int64
	multiN  atomic.Int64
	abortN  atomic.Int64
	perPart []atomic.Int64

	// files are the real-file log devices opened for Options.Dir; the
	// partitioned DB owns them and closes them after the engines shut
	// down (an engine never closes caller-supplied devices).
	files []*disk.File

	closed atomic.Bool
}

// Open builds and starts a partitioned engine: N engine instances plus
// Workers executor goroutines per partition. It fails only when
// Options.Dir is set and a partition's backing file cannot be opened.
func Open(o Options) (*DB, error) {
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0) / o.Partitions
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 25
	}
	db := &DB{
		opts:     o,
		n:        o.Partitions,
		parts:    make([]*engine.DB, o.Partitions),
		queues:   make([]chan *job, o.Partitions),
		stop:     make(chan struct{}),
		tables:   make(map[string]*Table),
		sessions: make([]sync.Pool, o.Partitions),
		perPart:  make([]atomic.Int64, o.Partitions),
	}
	if o.Dir != "" && o.EngineFor == nil {
		db.files = make([]*disk.File, o.Partitions)
		for p := range db.files {
			fd, err := disk.OpenFile(disk.FileConfig{
				Path:          filepath.Join(o.Dir, fmt.Sprintf("part%03d.wal", p)),
				Name:          fmt.Sprintf("part%03d", p),
				Mode:          o.FileMode,
				PreallocBytes: 1 << 20,
				BlockSize:     4096,
			})
			if err != nil {
				db.closeFiles()
				return nil, fmt.Errorf("partition %d: %w", p, err)
			}
			db.files[p] = fd
		}
	}
	for p := range db.parts {
		cfg := o.Base
		switch {
		case o.EngineFor != nil:
			cfg = o.EngineFor(p, cfg)
		case db.files != nil:
			// Real-file WAL per partition; data pages stay on the
			// simulated default device — recovery is log-driven, so only
			// the log needs real durability.
			cfg.Seed = o.Base.Seed + int64(p)*101
			cfg.DataDevice = nil
			cfg.LogDevices = []disk.Device{db.files[p]}
		default:
			// Distinct default-device identities per partition.
			cfg.Seed = o.Base.Seed + int64(p)*101
			cfg.DataDevice = nil
			cfg.LogDevices = nil
		}
		db.parts[p] = engine.Open(cfg)
	}
	db.met = obs.NewPartitionMetrics(obs.OrDefault(o.Base.Obs), o.Partitions)
	for p := range db.parts {
		db.queues[p] = make(chan *job, o.QueueDepth)
		for w := 0; w < o.Workers; w++ {
			db.wg.Add(1)
			go db.worker(p)
		}
	}
	return db, nil
}

// Partitions returns the partition count.
func (db *DB) Partitions() int { return db.n }

// Partition exposes partition p's engine (loaders, tests, stats).
func (db *DB) Partition(p int) *engine.DB { return db.parts[p] }

// Close shuts the executors down and closes every partition cleanly.
// Callers must be quiescent: all Run calls returned. On an instance
// that already crashed, Close only releases the Options.Dir files the
// crash left open for RecoveredEntries.
func (db *DB) Close() {
	if db.closed.Swap(true) {
		db.closeFiles()
		return
	}
	close(db.stop)
	db.wg.Wait()
	db.drain()
	for _, e := range db.parts {
		e.Close()
	}
	db.closeFiles()
}

// closeFiles releases the real-file log devices opened for Options.Dir
// (idempotent; a no-op for simulated or caller-supplied devices).
func (db *DB) closeFiles() {
	db.mu.Lock()
	files := db.files
	db.files = nil
	db.mu.Unlock()
	for _, f := range files {
		if f != nil {
			_ = f.Close()
		}
	}
}

// Crash simulates a whole-machine crash: every partition's log stops at
// its durable prefix. In-flight executor jobs fail with engine errors;
// use RecoveredEntries + Recover on a fresh instance to replay. Any
// Options.Dir files deliberately stay open — RecoveredEntries preads
// the durable image out of them — until a final Close releases them.
func (db *DB) Crash() {
	if db.closed.Swap(true) {
		return
	}
	for _, e := range db.parts {
		e.Crash()
	}
	close(db.stop)
	db.wg.Wait()
	db.drain()
}

// drain answers any jobs still queued after the workers exited.
func (db *DB) drain() {
	for _, q := range db.queues {
		for drained := false; !drained; {
			select {
			case j := <-q:
				j.done <- ErrClosed
			default:
				drained = true
			}
		}
	}
}

func (db *DB) session(p int) *engine.Session {
	if v := db.sessions[p].Get(); v != nil {
		return v.(*engine.Session)
	}
	return db.parts[p].NewSession()
}

func (db *DB) putSession(p int, s *engine.Session) { db.sessions[p].Put(s) }

// Table is a hash-partitioned (or replicated) table: one storage shard
// per partition under the same name and space on each.
type Table struct {
	db     *DB
	name   string
	shards []*storage.Table
	keyOf  func(pk uint64) uint64
	idx    map[string]func(ikey uint64) uint64
}

// CreateTable creates name on every partition. keyOf extracts the
// partition key from a primary key (rows live on partition
// keyOf(pk) mod N); a nil keyOf declares a replicated table, loaded
// identically into every partition and read-only at runtime. Tables
// must be created in the same order on every open of the same database
// so table spaces align for recovery.
func (db *DB) CreateTable(name string, keyOf func(pk uint64) uint64) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		return nil, fmt.Errorf("partition: table %q exists", name)
	}
	t := &Table{db: db, name: name, keyOf: keyOf, shards: make([]*storage.Table, db.n)}
	for p, e := range db.parts {
		st, err := e.CreateTable(name)
		if err != nil {
			return nil, err
		}
		t.shards[p] = st
	}
	db.tables[name] = t
	return t, nil
}

// Table looks a partitioned table up by name.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.Lock()
	t, ok := db.tables[name]
	db.mu.Unlock()
	return t, ok
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Shard exposes partition p's storage shard (loaders, audits).
func (t *Table) Shard(p int) *storage.Table { return t.shards[p] }

// Replicated reports whether the table is replicated on every partition.
func (t *Table) Replicated() bool { return t.keyOf == nil }

// partitionOf maps a primary key to its partition, or -1 for replicated
// tables (readable on any participant).
func (t *Table) partitionOf(pk uint64) int {
	if t.keyOf == nil {
		return -1
	}
	return int(t.keyOf(pk) % uint64(len(t.shards)))
}

// indexPartitionOf maps a secondary-index key to its partition via the
// extractor registered at CreateIndex, or -1 when unknown/replicated.
func (t *Table) indexPartitionOf(index string, ikey uint64) (int, error) {
	if t.keyOf == nil {
		return -1, nil
	}
	fn, ok := t.idx[index]
	if !ok {
		return 0, fmt.Errorf("partition: index %q on %q has no partition-key extractor", index, t.name)
	}
	return int(fn(ikey) % uint64(len(t.shards))), nil
}

// CreateIndex builds a secondary index on every shard. partOf extracts
// the partition key from an index key so the router can classify
// IndexScan ranges; it may be nil for replicated tables.
func (t *Table) CreateIndex(name string, keyFn func(pk uint64, img []byte) (uint64, bool), partOf func(ikey uint64) uint64) error {
	for p, st := range t.shards {
		if err := st.CreateIndex(t.db.parts[p].NewSession().Handle(), name, keyFn); err != nil {
			return err
		}
	}
	if t.keyOf != nil && partOf != nil {
		if t.idx == nil {
			t.idx = make(map[string]func(uint64) uint64)
		}
		t.idx[name] = partOf
	}
	return nil
}

// RunOn runs fn as a plain transaction directly on partition p,
// bypassing the executor queues — the loader and maintenance path.
func (db *DB) RunOn(p int, fn func(tx *engine.Txn) error) error {
	if db.closed.Load() {
		return ErrClosed
	}
	s := db.session(p)
	defer db.putSession(p, s)
	return s.RunTxn(db.opts.MaxRetries, fn)
}

// RecoveredEntries reads every partition's durable log image — the
// input to Recover on a fresh instance.
func (db *DB) RecoveredEntries() [][]wal.Entry {
	out := make([][]wal.Entry, db.n)
	for p, e := range db.parts {
		out[p] = e.Log().RecoveredEntries()
	}
	return out
}

// Recover replays each partition's durable entries into this (fresh)
// instance. In-doubt prepared transactions are resolved against the
// union of coordinator decision records across ALL partitions' logs —
// the decision for a cross-partition transaction lives in exactly one
// participant's stream, but it governs every participant. Because a
// decision was logged only after every participant's prepare was forced
// durable, the rule "prepared ∧ decided ⇒ committed, prepared ∧
// ¬decided ⇒ aborted" yields the same all-or-nothing outcome on every
// partition, whatever the crash point.
func (db *DB) Recover(perPart [][]wal.Entry) error {
	if len(perPart) != db.n {
		return fmt.Errorf("partition: recover: %d entry sets for %d partitions", len(perPart), db.n)
	}
	decided := make(map[uint64]bool)
	var maxGtid uint64
	for _, entries := range perPart {
		for _, e := range entries {
			op, _, gtid, _, err := engine.DecodeRedo(e.Payload)
			if err != nil {
				continue // partition's RecoverWith will report it
			}
			switch op {
			case engine.RedoDecide:
				decided[gtid] = true
				if gtid > maxGtid {
					maxGtid = gtid
				}
			case engine.RedoPrepare:
				if gtid > maxGtid {
					maxGtid = gtid
				}
			}
		}
	}
	oracle := func(g uint64) bool { return decided[g] }
	for p, entries := range perPart {
		if err := db.parts[p].RecoverWith(entries, oracle); err != nil {
			return fmt.Errorf("partition %d: %w", p, err)
		}
	}
	for {
		cur := db.gtid.Load()
		if cur >= maxGtid || db.gtid.CompareAndSwap(cur, maxGtid) {
			return nil
		}
	}
}

// Stats is a routing/throughput snapshot.
type Stats struct {
	// Single and Multi count committed transactions by classification;
	// MultiAborts counts cross-partition transactions that failed after
	// all retries.
	Single, Multi, MultiAborts int64
	// PerPartition counts committed transaction participations per
	// partition (a multi-partition commit counts on every participant) —
	// the skew view.
	PerPartition []int64
}

// Stats returns current counters.
func (db *DB) Stats() Stats {
	s := Stats{
		Single:       db.singleN.Load(),
		Multi:        db.multiN.Load(),
		MultiAborts:  db.abortN.Load(),
		PerPartition: make([]int64, db.n),
	}
	for p := range s.PerPartition {
		s.PerPartition[p] = db.perPart[p].Load()
	}
	return s
}
