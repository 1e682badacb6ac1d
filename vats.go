// Package vats is a from-scratch Go reproduction of "A Top-Down
// Approach to Achieving Performance Predictability in Database Systems"
// (Huang, Mozafari, Schoenebeck, Wenisch — SIGMOD 2017), the paper whose
// VATS lock scheduler shipped in MySQL 5.7.17 and became MariaDB's
// default.
//
// The package exposes a complete transactional storage engine — record
// 2PL with pluggable lock scheduling (FCFS / VATS / RS), an InnoDB-style
// young/old buffer pool with the paper's Lazy LRU Update policy, a redo
// WAL with group commit, three durability policies and parallel logging
// — plus the TProfiler variance profiler, the five OLTP benchmarks of
// the paper's evaluation, and an experiment harness that regenerates
// every table and figure.
//
// Quick start:
//
//	db, err := vats.Open(vats.Options{Scheduler: vats.VATS})
//	if err != nil { ... }
//	defer db.Close()
//	accounts, _ := db.CreateTable("accounts")
//	sess := db.NewSession()
//	err = sess.RunTxn(3, func(tx *vats.Txn) error {
//		var row vats.RowBuilder
//		return tx.Insert(accounts, 1, row.Int64(100).Bytes())
//	})
//
// The experiment harness is exposed through Experiments / RunExperiment;
// see cmd/repro for the tool that regenerates the paper's results.
package vats

import (
	"fmt"
	"time"

	"vats/internal/admit"
	"vats/internal/buffer"
	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/exec"
	"vats/internal/harness"
	"vats/internal/lock"
	"vats/internal/netload"
	"vats/internal/obs"
	"vats/internal/partition"
	"vats/internal/server"
	"vats/internal/stats"
	"vats/internal/storage"
	"vats/internal/tprofiler"
	"vats/internal/wal"
	"vats/internal/workload"
)

// Core engine types. These are aliases so the full engine API —
// documented in the respective internal packages — is available on the
// public surface.
type (
	// DB is a database engine instance.
	DB = engine.DB
	// Session is a worker-local connection; create one per goroutine.
	Session = engine.Session
	// Txn is a strict-2PL transaction.
	Txn = engine.Txn
	// SnapshotTxn is a lock-free read-only transaction over a frozen
	// commit timestamp: its reads never block writers or retry.
	SnapshotTxn = engine.SnapshotTxn
	// Table is a heap table with a clustered B+-tree primary index.
	Table = storage.Table
	// RowBuilder encodes typed fields into a row image.
	RowBuilder = storage.RowBuilder
	// RowReader decodes a row image.
	RowReader = storage.RowReader
	// Summary is a latency summary (mean/variance/p99...).
	Summary = stats.Summary
	// Profiler is the TProfiler variance profiler.
	Profiler = tprofiler.Profiler
	// Workload is an OLTP benchmark (loader + client factory).
	Workload = workload.Workload
	// BenchResult is a measurement run's result.
	BenchResult = harness.Result
	// Experiment is a regenerated paper table/figure.
	Experiment = harness.Experiment
	// AgeSample is one (age, remaining-time) lock-wait observation.
	AgeSample = engine.AgeSample
	// Obs is a live observability bundle: a sharded metrics registry,
	// the slow-transaction tracer, the online variance-attribution
	// engine with its SLO watchdog, and the overhead-budgeted sampling
	// controller (see internal/obs).
	Obs = obs.Obs
	// ObsConfig sizes an observability bundle (NewObservabilityWith).
	ObsConfig = obs.Config
	// ObsServer is a running /metrics + /debug HTTP endpoint.
	ObsServer = obs.Server
	// VarianceSnapshot is a merged live variance-attribution view (the
	// /debug/variance payload core).
	VarianceSnapshot = obs.VarianceSnapshot
	// VarianceConfig sizes the online attribution engine's windows.
	VarianceConfig = obs.VarianceConfig
	// SLOConfig holds the variance watchdog's targets.
	SLOConfig = obs.SLOConfig
	// Anomaly is one SLO-watchdog annotation (the /debug/anomalies
	// payload element).
	Anomaly = obs.Anomaly
	// SamplingConfig sets the span-capture overhead budget.
	SamplingConfig = obs.SamplingConfig
)

// Streaming scan executor (internal/exec): single-use pull-based
// operator pipelines over MVCC snapshots. Sources bind to a
// SnapshotTxn, so a whole pipeline never takes a lock.
type (
	// Row is one row flowing through an executor pipeline; Data is
	// valid only until the next Next call.
	Row = exec.Row
	// Iterator is a single-use executor row stream.
	Iterator = exec.Iterator
)

// NewTableScan streams a table's rows in key order at tx's snapshot,
// with [lo, hi] pushed into the B+-tree descent.
func NewTableScan(tx *SnapshotTxn, t *Table, lo, hi uint64) Iterator {
	return exec.NewTableScan(tx, t, lo, hi)
}

// NewIndexScan streams rows in secondary-key order at tx's snapshot.
func NewIndexScan(tx *SnapshotTxn, t *Table, index string, lo, hi uint64) Iterator {
	return exec.NewIndexScan(tx, t, index, lo, hi)
}

// Filter drops rows failing pred.
func Filter(in Iterator, pred func(Row) bool) Iterator { return exec.Filter(in, pred) }

// Project rewrites each row image through proj (dst is a reused
// scratch buffer to append into).
func Project(in Iterator, proj func(dst []byte, r Row) []byte) Iterator {
	return exec.Project(in, proj)
}

// Limit stops after n rows; upstream operators do no further work.
func Limit(in Iterator, n int) Iterator { return exec.Limit(in, n) }

// Merge combines key-ordered iterators into one key-ordered stream.
func Merge(ins ...Iterator) Iterator { return exec.Merge(ins...) }

// NewRowReader wraps a row image for decoding.
func NewRowReader(row []byte) *RowReader { return storage.NewRowReader(row) }

// Summarize condenses raw latency observations (in ms) into a Summary.
func Summarize(latencies []float64) Summary { return stats.Summarize(latencies) }

// NewProfiler returns an empty TProfiler instance; pass it in Options to
// collect a variance tree while the engine runs.
func NewProfiler() *Profiler { return tprofiler.New() }

// Observability returns the process-wide observability bundle that
// engines fall back to when Options.Obs is nil. It is disabled (near-
// zero cost) until enabled via SetEnabled or ServeObservability.
func Observability() *Obs { return obs.Default }

// NewObservability returns a fresh, enabled observability bundle to
// pass in Options.Obs when one engine should be observed in isolation
// from the global default. Serve the bundle with its Serve method.
func NewObservability() *Obs { return obs.New() }

// NewObservabilityWith returns a fresh bundle with explicit sizing —
// variance windows, SLO targets, sampling budget, slow-ring bounds.
func NewObservabilityWith(cfg ObsConfig) *Obs { return obs.NewWith(cfg) }

// ServeObservability starts the /metrics + /debug/txns + /debug/stats
// HTTP endpoint on addr (e.g. ":9090", or "127.0.0.1:0" for an
// ephemeral port) serving the global observability bundle, enabling
// collection as a side effect. Close the returned server to stop it.
func ServeObservability(addr string) (*ObsServer, error) {
	return obs.Serve(addr, obs.Default)
}

// SchedulerPolicy selects the lock scheduler (§5 of the paper).
type SchedulerPolicy int

const (
	// FCFS is first-come-first-served — the MySQL/Postgres default and
	// the paper's baseline.
	FCFS SchedulerPolicy = iota
	// VATS is the paper's Variance-Aware Transaction Scheduling:
	// eldest-transaction-first, Lp-optimal under i.i.d. remaining times.
	VATS
	// RS is randomized scheduling (the paper's control).
	RS
)

// String names the policy.
func (p SchedulerPolicy) String() string {
	switch p {
	case VATS:
		return "VATS"
	case RS:
		return "RS"
	default:
		return "FCFS"
	}
}

func (p SchedulerPolicy) scheduler() lock.Scheduler {
	switch p {
	case VATS:
		return lock.VATS{}
	case RS:
		return lock.RS{}
	default:
		return lock.FCFS{}
	}
}

// FlushPolicy selects redo-log durability (the paper's Appendix B /
// innodb_flush_log_at_trx_commit).
type FlushPolicy int

const (
	// EagerFlush fsyncs on the commit path (fully durable).
	EagerFlush FlushPolicy = iota
	// LazyFlush writes on commit, fsyncs in the background.
	LazyFlush
	// LazyWrite defers both write and fsync to the background.
	LazyWrite
)

func (p FlushPolicy) wal() wal.FlushPolicy {
	switch p {
	case LazyFlush:
		return wal.LazyFlush
	case LazyWrite:
		return wal.LazyWrite
	default:
		return wal.EagerFlush
	}
}

// Isolation selects what Txn.Scan/IndexScan read (point reads are
// always record-locked; snapshot reads via Session.BeginSnapshot are
// always timestamp-frozen regardless of this knob).
type Isolation int

const (
	// ReadCommitted streams the newest state with no frozen timestamp
	// (the historical scan behavior, and the default).
	ReadCommitted Isolation = iota
	// SnapshotScans freezes each transaction's scans at the timestamp
	// of its first scan; scans then miss the transaction's own
	// uncommitted writes.
	SnapshotScans
)

func (i Isolation) engine() engine.IsolationLevel {
	if i == SnapshotScans {
		return engine.SnapshotScans
	}
	return engine.ReadCommitted
}

// LRUPolicy selects the buffer pool's promotion synchronization (§6.1).
type LRUPolicy int

const (
	// EagerLRU blocks on the pool mutex (original MySQL).
	EagerLRU LRUPolicy = iota
	// LazyLRU is the paper's Lazy LRU Update: bounded spin + backlog.
	LazyLRU
)

func (p LRUPolicy) buffer() buffer.UpdatePolicy {
	if p == LazyLRU {
		return buffer.LazyLRU
	}
	return buffer.EagerLRU
}

// Options configures Open. The zero value is a usable small engine.
type Options struct {
	// Scheduler is the lock scheduling policy (default FCFS).
	Scheduler SchedulerPolicy
	// Flush is the redo durability policy (default EagerFlush).
	Flush FlushPolicy
	// LRU is the buffer-pool promotion policy (default EagerLRU).
	LRU LRUPolicy
	// BufferPages is the buffer pool capacity in pages (default 1024).
	BufferPages int
	// PageSize in bytes (default 4096).
	PageSize int
	// LockTimeout bounds lock waits (default 2s).
	LockTimeout time.Duration
	// ParallelLog enables two-stream parallel logging (§6.2).
	ParallelLog bool
	// Profiler, when non-nil, receives TProfiler spans.
	Profiler *Profiler
	// SampleAgeRemaining collects (age, remaining-time) pairs at lock
	// waits (Figure 8 data), retrievable via DB.AgeSamples.
	SampleAgeRemaining bool
	// Obs, when non-nil, is a dedicated observability bundle for this
	// engine; nil uses the global Observability() default.
	Obs *Obs
	// ScanIsolation selects the isolation Txn.Scan/IndexScan run at
	// (default ReadCommitted; see Isolation).
	ScanIsolation Isolation
	// MVCCGCInterval is the version-store GC period (0 = the engine
	// default of 25ms; negative disables the background pass).
	MVCCGCInterval time.Duration
	// Partitions, when > 1, is the partition count for OpenPartitioned;
	// Open ignores it (a plain engine is always one partition).
	Partitions int
	// PartitionWorkers is the executor-goroutine count per partition
	// for OpenPartitioned (0 = GOMAXPROCS/Partitions, floor 1).
	PartitionWorkers int
	// Seed makes the simulated devices deterministic.
	Seed int64
}

// engineConfig maps Options onto one engine instance's configuration,
// creating the instance's simulated devices from o.Seed.
func (o Options) engineConfig() engine.Config {
	if o.BufferPages == 0 {
		o.BufferPages = 1024
	}
	if o.PageSize == 0 {
		o.PageSize = 4096
	}
	logDevices := []disk.Device{disk.New(disk.DefaultConfig("log0", o.Seed+2))}
	if o.ParallelLog {
		logDevices = append(logDevices, disk.New(disk.DefaultConfig("log1", o.Seed+3)))
	}
	dataCfg := disk.DefaultConfig("data", o.Seed+1)
	dataCfg.MedianLatency = 120 * time.Microsecond
	return engine.Config{
		Scheduler:          o.Scheduler.scheduler(),
		LockTimeout:        o.LockTimeout,
		BufferCapacity:     o.BufferPages,
		PageSize:           o.PageSize,
		LRUPolicy:          o.LRU.buffer(),
		DataDevice:         disk.New(dataCfg),
		LogDevices:         logDevices,
		FlushPolicy:        o.Flush.wal(),
		Profiler:           o.Profiler,
		SampleAgeRemaining: o.SampleAgeRemaining,
		Obs:                o.Obs,
		ScanIsolation:      o.ScanIsolation.engine(),
		MVCCGCInterval:     o.MVCCGCInterval,
		Seed:               o.Seed,
	}
}

// Open starts an engine with simulated storage devices.
func Open(o Options) (*DB, error) {
	return engine.Open(o.engineConfig()), nil
}

// Horizontally partitioned engine (internal/partition): N independent
// engine instances hash-partitioned by a declared partition key, a
// router that classifies each transaction's declared key set up front,
// per-partition executor queues for single-partition transactions, and
// two-phase commit over per-stream durable watermarks for
// multi-partition ones.
type (
	// PartitionedDB is a running N-way partitioned engine.
	PartitionedDB = partition.DB
	// PartitionedTxn is a routed transaction spanning one or more
	// partitions (passed to the function given to PartitionedDB.Run).
	PartitionedTxn = partition.Txn
	// PartitionRef declares one (table, primary key) a transaction will
	// touch — the router classifies transactions from these.
	PartitionRef = partition.Ref
	// PartitionedTable is a hash-partitioned (or replicated) table.
	PartitionedTable = partition.Table
	// PartitionStats is a routing/throughput snapshot.
	PartitionStats = partition.Stats
	// PartitionedWorkload is a benchmark that can drive a partitioned
	// engine.
	PartitionedWorkload = workload.PartitionedWorkload
)

// OpenPartitioned starts an o.Partitions-way partitioned engine. Each
// partition is an independent engine with its own simulated devices
// (seeded distinctly from o.Seed) and WAL stream(s); o's remaining
// fields configure every partition identically.
func OpenPartitioned(o Options) (*PartitionedDB, error) {
	n := o.Partitions
	if n <= 0 {
		n = 1
	}
	base := o
	return partition.Open(partition.Options{
		Partitions: n,
		Workers:    o.PartitionWorkers,
		Base:       base.engineConfig(),
		EngineFor: func(p int, _ engine.Config) engine.Config {
			po := base
			po.Seed = base.Seed + int64(p)*101
			return po.engineConfig()
		},
	})
}

// NewPartitionedTPCC builds the partition-aware TPC-C workload:
// hash-partitioned by warehouse with the item table replicated.
// crossWarehouseP is the fraction of Payments paying for a remote
// warehouse's customer and of NewOrders sourcing a line from a remote
// warehouse — the multi-partition transaction ratio knob.
func NewPartitionedTPCC(warehouses int, crossWarehouseP float64) PartitionedWorkload {
	return workload.NewPartitionedTPCC(workload.TPCCConfig{Warehouses: warehouses}, crossWarehouseP)
}

// RunPartitionedBenchmark loads wl into pdb and drives it with the same
// driver and measurement semantics as RunBenchmark.
func RunPartitionedBenchmark(pdb *PartitionedDB, wl PartitionedWorkload, cfg BenchConfig) (BenchResult, error) {
	if err := wl.LoadPartitioned(pdb); err != nil {
		return BenchResult{}, fmt.Errorf("vats: load %s: %w", wl.Name(), err)
	}
	return harness.RunPartitioned(pdb, wl, harness.RunConfig{
		Clients: cfg.Clients,
		Rate:    cfg.Rate,
		Count:   cfg.Count,
		Warmup:  cfg.Warmup,
		Seed:    cfg.Seed,
	})
}

// Network service layer (internal/server + internal/admit +
// internal/netload): the vatsd wire protocol server that maps
// connections onto Session/SnapshotTxn, the admission controller with
// per-class load shedding and a p99 queue-wait feedback target, and the
// open-loop load generator. See cmd/vatsd and cmd/vatsload for the
// command-line front ends and docs/SERVER.md for the protocol.
type (
	// Server serves the wire protocol over TCP or unix sockets.
	Server = server.Server
	// ServerConfig configures a Server (admission knobs included).
	ServerConfig = server.Config
	// ServerClient is a synchronous wire-protocol client.
	ServerClient = server.Client
	// AdmitConfig configures the admission controller.
	AdmitConfig = admit.Config
	// AdmitClass is an admission priority class.
	AdmitClass = admit.Class
	// AdmitStats is an admission-controller snapshot.
	AdmitStats = admit.Stats
	// LoadConfig drives one open-loop load-generator run.
	LoadConfig = netload.Config
	// LoadResult is a load run's outcome.
	LoadResult = netload.Result
)

// Admission classes, highest priority first.
const (
	ClassHigh   = admit.High
	ClassNormal = admit.Normal
	ClassLow    = admit.Low
)

// ErrShed: the request was load-shed by admission control; back off.
var ErrShed = admit.ErrShed

// NewServer builds a wire-protocol server over an open engine; call
// Listen to bind and Close to shut down.
func NewServer(db *DB, cfg ServerConfig) *Server { return server.New(db, cfg) }

// DialServer connects a synchronous client to a running server.
func DialServer(network, addr string) (*ServerClient, error) { return server.Dial(network, addr) }

// RunLoad executes one open-loop load run against a running server.
func RunLoad(cfg LoadConfig) (*LoadResult, error) { return netload.Run(cfg) }

// Row-operation errors, re-exported for errors.Is checks.
var (
	// ErrKeyNotFound: the primary key does not exist.
	ErrKeyNotFound = storage.ErrKeyNotFound
	// ErrDuplicateKey: an Insert hit an existing key.
	ErrDuplicateKey = storage.ErrDuplicateKey
	// ErrDeadlock: the transaction was a deadlock victim; retry.
	ErrDeadlock = lock.ErrDeadlock
	// ErrLockTimeout: a lock wait timed out; retry.
	ErrLockTimeout = lock.ErrTimeout
)

// IsRetryable reports whether err is a transient concurrency failure
// worth retrying in a fresh transaction.
func IsRetryable(err error) bool { return engine.IsRetryable(err) }

// NewWorkload builds one of the paper's five benchmarks by name:
// "tpcc", "seats", "tatp", "epinions" or "ycsb".
func NewWorkload(name string) (Workload, error) { return workload.ByName(name) }

// BenchConfig configures RunBenchmark.
type BenchConfig struct {
	// Clients is the number of concurrent terminals (default 8).
	Clients int
	// Rate is the offered load in txn/s; <= 0 runs closed-loop.
	Rate float64
	// Count is the number of transactions to measure (default 500).
	Count int
	// Warmup transactions are excluded from statistics.
	Warmup int
	// Seed seeds the clients.
	Seed int64
}

// RunBenchmark loads wl into db and drives it, returning latency
// statistics. This is the OLTP-Bench-style driver of §7.1.
func RunBenchmark(db *DB, wl Workload, cfg BenchConfig) (BenchResult, error) {
	if err := wl.Load(db); err != nil {
		return BenchResult{}, fmt.Errorf("vats: load %s: %w", wl.Name(), err)
	}
	return harness.Run(db, wl, harness.RunConfig{
		Clients: cfg.Clients,
		Rate:    cfg.Rate,
		Count:   cfg.Count,
		Warmup:  cfg.Warmup,
		Seed:    cfg.Seed,
	})
}

// ExperimentIDs lists the reproducible paper artifacts (table1..table4,
// fig2..fig8, appC1, thm1) in presentation order.
func ExperimentIDs() []string { return harness.IDs() }

// ExperimentOpts scales an experiment; the zero value uses each
// experiment's full-size defaults.
type ExperimentOpts struct {
	// Count is transactions per measurement run (0 = default).
	Count int
	// Clients is the worker count (0 = default).
	Clients int
	// Rate is the offered load; 0 = default, negative = closed loop.
	Rate float64
	// Seed controls all randomness.
	Seed int64
}

// RunExperiment regenerates one table or figure by id.
func RunExperiment(id string, o ExperimentOpts) (Experiment, error) {
	r, ok := harness.All()[id]
	if !ok {
		return Experiment{}, fmt.Errorf("vats: unknown experiment %q (want one of %v)", id, harness.IDs())
	}
	return r(harness.Opts{Count: o.Count, Clients: o.Clients, Rate: o.Rate, Seed: o.Seed})
}
