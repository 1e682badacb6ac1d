// Package engine assembles the substrates into a transactional database
// engine: strict two-phase record locking (internal/lock) with a
// pluggable scheduler, a buffer pool with young/old LRU (internal/buffer),
// redo logging with configurable durability (internal/wal), heap tables
// with B+-tree indexes (internal/storage), and TProfiler span hooks at
// every layer.
//
// The engine substitutes for the MySQL/Postgres servers of the paper's
// evaluation. Its configuration knobs are exactly the paper's levers:
//
//   - Config.Scheduler:     FCFS (baseline) vs VATS vs RS        (§5)
//   - Config.LRUPolicy:     EagerLRU vs LazyLRU (LLU)            (§6.1)
//   - Config.ParallelLog:   single WAL stream vs parallel        (§6.2)
//   - Config.FlushPolicy:   eager / lazy flush / lazy write      (App. B)
//   - Config.BufferCapacity and log-device block size            (§7.5)
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/buffer"
	"vats/internal/disk"
	"vats/internal/lock"
	"vats/internal/mvcc"
	"vats/internal/obs"
	"vats/internal/storage"
	"vats/internal/tprofiler"
	"vats/internal/wal"
)

// Config configures an engine instance. The zero value is usable: FCFS
// scheduling, a 256-page pool, one default log device, eager flush.
type Config struct {
	// Scheduler orders lock grants (nil = FCFS, the MySQL default).
	Scheduler lock.Scheduler
	// LockTimeout bounds each lock wait (default 2s).
	LockTimeout time.Duration
	// DeadlockInterval is the detector period (default 1ms).
	DeadlockInterval time.Duration

	// BufferCapacity is the pool size in pages (default 256).
	BufferCapacity int
	// PageSize in bytes (default 4096).
	PageSize int
	// LRUPolicy selects Eager vs Lazy (LLU) LRU updates.
	LRUPolicy buffer.UpdatePolicy
	// LRUCriticalCost is the simulated cost of the buffer pool's LRU
	// critical section (see buffer.Config.CriticalCost).
	LRUCriticalCost time.Duration

	// DataDevice backs page I/O; nil builds a default device.
	DataDevice disk.Device
	// LogDevices back the WAL; nil builds one default device. Two or
	// more with ParallelLog enables parallel logging.
	LogDevices []disk.Device
	// ParallelLog lets committers use all log devices concurrently.
	ParallelLog bool
	// FlushPolicy is the WAL durability policy.
	FlushPolicy wal.FlushPolicy
	// LogFlushInterval is the lazy flusher period (default 5ms).
	LogFlushInterval time.Duration

	// Profiler receives transaction spans; nil disables profiling.
	Profiler *tprofiler.Profiler

	// Obs is the live observability bundle (metrics registry + slow-
	// transaction tracer) wired through every layer. Nil falls back to
	// obs.Default, which is disabled until something (the -obs flag,
	// obs.Serve) enables it — so the zero config pays only the disabled
	// fast path.
	Obs *obs.Obs

	// SampleAgeRemaining makes every transaction record, at each lock
	// wait, its age when it entered the queue and (at commit) the time
	// that remained after the grant — the paper's Figure 8 / Appendix
	// C.2 data.
	SampleAgeRemaining bool

	// MVCCGCInterval is the period of the background version-store GC
	// (0 = the 25ms default, negative disables; call RunGC manually).
	MVCCGCInterval time.Duration

	// ScanIsolation selects the isolation level Txn.Scan and
	// Txn.IndexScan run at: ReadCommitted (default, the historical
	// behavior) or SnapshotScans, under which every scan in a
	// transaction reads the committed state frozen at the transaction's
	// first scan.
	ScanIsolation IsolationLevel

	// CkptChunkPause is the think time an online checkpoint inserts
	// after each streamed chunk's flush — the pacing that keeps the
	// checkpoint's durability barriers from monopolizing the log
	// stream lock against live group commits (the commit-stall
	// guardrail). 0 = the 200µs default; negative disables pacing
	// (tests that hammer checkpoints back-to-back want the raw speed).
	CkptChunkPause time.Duration

	// Seed seeds default devices.
	Seed int64
}

// IsolationLevel selects what Txn.Scan/IndexScan read (point reads are
// always protected by record locks; this knob only governs scans).
type IsolationLevel int

const (
	// ReadCommitted scans stream the newest committed state without a
	// frozen timestamp: rows committed mid-scan may or may not appear.
	ReadCommitted IsolationLevel = iota
	// SnapshotScans gives every scan in a transaction a shared read
	// timestamp frozen at its first scan: the scan sees exactly the
	// state committed at that timestamp — and therefore does NOT see
	// the transaction's own uncommitted writes.
	SnapshotScans
)

// AgeSample is one (age, remaining-time) observation at a lock
// scheduling decision, both in milliseconds.
type AgeSample struct {
	Age       float64
	Remaining float64
}

// DB is a running engine instance.
type DB struct {
	cfg   Config
	locks *lock.Manager
	pool  *buffer.Pool
	log   *wal.Manager
	obs   *obs.Obs
	met   *obs.EngineMetrics
	mvmet *obs.MVCCMetrics

	// clock is the commit-timestamp clock every table stamps versions
	// from; its contiguous watermark is the snapshot-read frontier.
	clock  *mvcc.Clock
	gcStop chan struct{}
	gcWG   sync.WaitGroup

	// cat is the immutable catalog snapshot: per-statement name and
	// space resolution read it with one atomic load and no lock. DDL
	// (CreateTable) serializes on catMu and installs a fresh copy.
	cat       atomic.Pointer[catalog]
	catMu     sync.Mutex
	nextSpace uint32 // guarded by catMu

	samplesMu sync.RWMutex
	samples   map[string][]AgeSample

	// Online-checkpoint state: ckptReg tracks writers for the safe
	// truncation bound; ckptMu serializes checkpoints and guards the
	// incremental bookkeeping and the decision pruner.
	ckptReg        *ckptRegistry
	ckptMu         sync.Mutex
	lastEmit       map[uint32]emitInfo
	decisionPruner func(gtid uint64) bool
	ckptPause      time.Duration

	nextTxn atomic.Uint64
	closed  atomic.Bool

	// hasDecisions is set once any 2PC decide record may exist in the
	// log (LogDecision called, or recovery saw one). While unset,
	// checkpoints skip the decide-preservation scan of the durable log.
	hasDecisions atomic.Bool
}

// AgeSamples returns the collected (age, remaining) samples per
// transaction tag. Requires Config.SampleAgeRemaining.
func (db *DB) AgeSamples() map[string][]AgeSample {
	db.samplesMu.RLock()
	defer db.samplesMu.RUnlock()
	out := make(map[string][]AgeSample, len(db.samples))
	for k, v := range db.samples {
		out[k] = append([]AgeSample(nil), v...)
	}
	return out
}

func (db *DB) addSamples(tag string, s []AgeSample) {
	db.samplesMu.Lock()
	if db.samples == nil {
		db.samples = make(map[string][]AgeSample)
	}
	db.samples[tag] = append(db.samples[tag], s...)
	db.samplesMu.Unlock()
}

// Open builds and starts an engine.
func Open(cfg Config) *DB {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 2 * time.Second
	}
	if cfg.BufferCapacity <= 0 {
		cfg.BufferCapacity = 256
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	if cfg.DataDevice == nil {
		dc := disk.DefaultConfig("data", cfg.Seed+1)
		dc.MedianLatency = 120 * time.Microsecond
		cfg.DataDevice = disk.New(dc)
	}
	if len(cfg.LogDevices) == 0 {
		cfg.LogDevices = []disk.Device{disk.New(disk.DefaultConfig("log0", cfg.Seed+2))}
	}
	ob := obs.OrDefault(cfg.Obs)
	db := &DB{
		cfg:   cfg,
		obs:   ob,
		met:   obs.NewEngineMetrics(ob),
		mvmet: obs.NewMVCCMetrics(ob),
		clock: mvcc.NewClock(),
	}
	db.ckptReg = newCkptRegistry(db.clock)
	switch {
	case cfg.CkptChunkPause < 0:
		db.ckptPause = 0
	case cfg.CkptChunkPause == 0:
		db.ckptPause = 200 * time.Microsecond
	default:
		db.ckptPause = cfg.CkptChunkPause
	}
	db.cat.Store(&catalog{
		tables:  make(map[string]*storage.Table),
		bySpace: make(map[uint32]*storage.Table),
	})
	db.locks = lock.NewManager(lock.Options{
		Scheduler:      cfg.Scheduler,
		WaitTimeout:    cfg.LockTimeout,
		DetectInterval: cfg.DeadlockInterval,
		Obs:            ob,
	})
	db.pool = buffer.NewPool(buffer.Config{
		Capacity:     cfg.BufferCapacity,
		PageSize:     cfg.PageSize,
		Device:       cfg.DataDevice,
		Policy:       cfg.LRUPolicy,
		CriticalCost: cfg.LRUCriticalCost,
		Obs:          ob,
	})
	db.log = wal.New(wal.Config{
		Devices:       cfg.LogDevices,
		Parallel:      cfg.ParallelLog,
		Policy:        cfg.FlushPolicy,
		FlushInterval: cfg.LogFlushInterval,
		Obs:           ob,
	})
	gcEvery := cfg.MVCCGCInterval
	if gcEvery == 0 {
		gcEvery = 25 * time.Millisecond
	}
	if gcEvery > 0 {
		db.gcStop = make(chan struct{})
		db.gcWG.Add(1)
		go db.gcLoop(gcEvery)
	}
	return db
}

// gcLoop periodically reclaims versions unreachable below the low-water
// read timestamp across all tables.
func (db *DB) gcLoop(every time.Duration) {
	defer db.gcWG.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-db.gcStop:
			return
		case <-tick.C:
			db.RunGC()
		}
	}
}

// RunGC runs one version-store GC pass over every table, freeing
// versions unreachable at the clock's low-water read timestamp, and
// refreshes the arena gauges. Returns the number of versions freed.
func (db *DB) RunGC() int {
	lw := db.clock.LowWater()
	start := time.Now()
	freed := 0
	var versions, bytes int64
	for _, t := range db.cat.Load().tables {
		freed += t.GC(lw)
		st := t.MVCCStats()
		versions += st.Versions
		bytes += st.ArenaBytes
	}
	db.mvmet.GCDone(time.Since(start), freed)
	db.mvmet.SetArena(versions, bytes)
	return freed
}

// Clock exposes the commit-timestamp clock (snapshot experiments,
// torture audits).
func (db *DB) Clock() *mvcc.Clock { return db.clock }

// Close shuts the engine down cleanly (final log flush, detector stop).
func (db *DB) Close() {
	if db.closed.Swap(true) {
		return
	}
	db.stopGC()
	db.log.Close()
	db.locks.Close()
}

func (db *DB) stopGC() {
	if db.gcStop != nil {
		close(db.gcStop)
		db.gcWG.Wait()
	}
}

// Crash simulates a crash: the log stops at its durable prefix and the
// engine refuses further transactions. Use RecoveredEntries + Recover on
// a fresh engine to replay.
func (db *DB) Crash() {
	if db.closed.Swap(true) {
		return
	}
	db.stopGC()
	db.log.Crash()
	db.locks.Close()
}

// catalog is an immutable name/space → table snapshot. Lookups read the
// published snapshot lock-free; CreateTable installs a fresh one.
type catalog struct {
	tables  map[string]*storage.Table
	bySpace map[uint32]*storage.Table
}

// CreateTable creates an empty table.
func (db *DB) CreateTable(name string) (*storage.Table, error) {
	db.catMu.Lock()
	defer db.catMu.Unlock()
	old := db.cat.Load()
	if _, ok := old.tables[name]; ok {
		return nil, fmt.Errorf("engine: table %q exists", name)
	}
	db.nextSpace++
	t := storage.NewTableWithClock(name, db.nextSpace, db.pool, db.clock, db.mvmet)
	next := &catalog{
		tables:  make(map[string]*storage.Table, len(old.tables)+1),
		bySpace: make(map[uint32]*storage.Table, len(old.bySpace)+1),
	}
	for k, v := range old.tables {
		next.tables[k] = v
	}
	for k, v := range old.bySpace {
		next.bySpace[k] = v
	}
	next.tables[name] = t
	next.bySpace[db.nextSpace] = t
	db.cat.Store(next)
	return t, nil
}

// Table looks a table up by name. Lock-free: concurrent readers never
// serialize on the catalog.
func (db *DB) Table(name string) (*storage.Table, bool) {
	t, ok := db.cat.Load().tables[name]
	return t, ok
}

func (db *DB) tableBySpace(space uint32) (*storage.Table, bool) {
	t, ok := db.cat.Load().bySpace[space]
	return t, ok
}

// Tables returns every table in the catalog, sorted by name. Lock-free,
// like Table.
func (db *DB) Tables() []*storage.Table {
	cat := db.cat.Load()
	out := make([]*storage.Table, 0, len(cat.tables))
	for _, t := range cat.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name() < out[b].Name() })
	return out
}

// Pool exposes the buffer pool (stats, experiments).
func (db *DB) Pool() *buffer.Pool { return db.pool }

// Locks exposes the lock manager (stats, experiments).
func (db *DB) Locks() *lock.Manager { return db.locks }

// Log exposes the WAL manager (stats, crash experiments).
func (db *DB) Log() *wal.Manager { return db.log }

// Profiler returns the configured profiler (possibly nil).
func (db *DB) Profiler() *tprofiler.Profiler { return db.cfg.Profiler }

// Obs returns the engine's observability bundle (never nil; disabled
// unless enabled via Config.Obs or the global default).
func (db *DB) Obs() *obs.Obs { return db.obs }

// Session is a worker-local connection: it owns a buffer handle (and
// with it the LLU backlog). Sessions are not safe for concurrent use;
// create one per goroutine, like a connection.
type Session struct {
	db *DB
	h  *buffer.Handle

	// Reusable redo-encoding buffers, lent to one transaction at a time
	// (Begin takes them, Commit/Rollback return them grown). A second
	// transaction interleaved on the same session finds them taken and
	// falls back to allocating; steady-state single-transaction use pays
	// zero allocations per statement for redo encoding.
	spareRedo  []byte
	spareEnds  []int
	spareViews [][]byte

	// Reusable undo buffers, lent the same way: the undo entries and the
	// packed before-images they reference by offset.
	spareUndo    []undoEntry
	spareUndoBuf []byte

	// Single-entry table cache: a session typically hammers one table
	// per statement batch, so repeat resolutions skip even the atomic
	// catalog load.
	lastName  string
	lastTable *storage.Table
}

// NewSession opens a connection-like session.
func (db *DB) NewSession() *Session {
	s := &Session{db: db, h: db.pool.NewHandle()}
	if db.cfg.Profiler != nil {
		// The profiler wants buf_pool_mutex_enter attribution, so pay
		// for the hit-path wait clocks; without it the buffer hit path
		// skips them.
		s.h.SetWaitTracking(true)
	}
	return s
}

// Table resolves a table by name through the session's one-entry cache.
// The catalog is immutable-snapshot based, so a cached pointer can never
// go stale (tables are never dropped; DDL only adds).
func (s *Session) Table(name string) (*storage.Table, bool) {
	if s.lastTable != nil && s.lastName == name {
		return s.lastTable, true
	}
	t, ok := s.db.Table(name)
	if ok {
		s.lastName, s.lastTable = name, t
	}
	return t, ok
}

// DB returns the owning engine.
func (s *Session) DB() *DB { return s.db }

// Handle exposes the session's buffer handle for storage-level
// maintenance operations (e.g. Table.CreateIndex backfills).
func (s *Session) Handle() *buffer.Handle { return s.h }

// ErrClosed is returned when the engine is shut down or crashed.
var ErrClosed = errors.New("engine: closed")

// Begin starts a transaction. The transaction's birth time is its age
// basis for VATS.
func (s *Session) Begin() *Txn {
	return s.BeginAt(time.Now())
}

// BeginAt starts a transaction with an explicit birth time. RunTxn uses
// it to preserve a transaction's age across deadlock retries: the
// logical unit of work was born at its first attempt, and VATS must see
// that age or retried victims would rejoin every queue as the youngest
// waiter and could starve.
func (s *Session) BeginAt(birth time.Time) *Txn {
	id := lock.TxnID(s.db.nextTxn.Add(1))
	s.db.met.Begin()
	tx := &Txn{
		s:     s,
		id:    id,
		birth: birth,
		tc:    s.db.cfg.Profiler.StartTxn(),
		tr:    s.db.obs.Tracer.BeginTxn(uint64(id)),
	}
	tx.redo, s.spareRedo = s.spareRedo[:0], nil
	tx.redoEnds, s.spareEnds = s.spareEnds[:0], nil
	tx.undo, s.spareUndo = s.spareUndo[:0], nil
	tx.undoBuf, s.spareUndoBuf = s.spareUndoBuf[:0], nil
	return tx
}

// LogDecision durably records the coordinator's commit decision for a
// global transaction id — the point of no return in two-phase commit.
// The decide record is forced to disk under its own engine transaction
// id regardless of the flush policy; once it returns, recovery on ANY
// participant that can see this stream resolves the gtid as committed.
func (db *DB) LogDecision(gtid uint64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	id := db.nextTxn.Add(1)
	// Mark before the append: even a decide that fails mid-append may
	// already sit in a device cache, and the preservation scan must be
	// conservative.
	db.hasDecisions.Store(true)
	if _, err := db.log.AppendBatch(id, [][]byte{encodeRedo(redoDecide, 0, gtid, nil)}); err != nil {
		return fmt.Errorf("engine: log decision: %w", err)
	}
	if err := db.log.CommitSync(id); err != nil {
		return fmt.Errorf("engine: log decision: %w", err)
	}
	return nil
}

// IsRetryable reports whether an error is a transient concurrency
// failure (deadlock victim or lock timeout) that the application should
// retry with a fresh transaction.
func IsRetryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrTimeout)
}

// RunTxn runs fn in a transaction, retrying deadlock/timeout victims up
// to maxRetries times. fn may be invoked multiple times and must be
// idempotent from the database's point of view (each attempt sees a
// fresh transaction).
func (s *Session) RunTxn(maxRetries int, fn func(tx *Txn) error) error {
	birth := time.Now()
	for attempt := 0; ; attempt++ {
		tx := s.BeginAt(birth)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		} else {
			tx.Rollback()
		}
		if !IsRetryable(err) || attempt >= maxRetries {
			return err
		}
	}
}
