// Package torture is the deterministic crash & fault-injection harness
// for the recovery path. One Run is one simulated machine life: a
// seeded multi-worker workload commits against an engine whose log
// devices share a single disk.Plan (torn writes, dropped fsyncs,
// transient I/O errors, a crash point), the machine dies, and the
// harness re-opens a fresh engine from the devices' durable byte
// images and audits every recovery invariant:
//
//   - every acked commit is durable (device lies and lazy policies are
//     classified as at-risk, not violations — see verify.go);
//   - no rolled-back or unknown transaction appears in the log;
//   - recovered batches match the workload journal byte-for-byte;
//   - the WAL's DurableWatermark never exceeds what the devices hold;
//   - recovery's final state equals an independent spec-level replay,
//     including checkpoint choice and checkpoint+Truncate interplay;
//   - B+-tree and secondary indexes agree with the heap pages
//     (engine/storage/buffer/wal CheckInvariants).
//
// Everything a round does is derived from one int64 seed, so a failing
// seed is a complete reproducer.
package torture

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/storage"
	"vats/internal/wal"
	"vats/internal/xrand"
)

// Config is one torture round, fully derived from Seed by FromSeed.
type Config struct {
	Seed          int64
	Workers       int
	TxnsPerWorker int
	Keys          uint64
	Parallel      bool // two log streams instead of one
	Policy        wal.FlushPolicy
	Checkpoints   bool // checkpoints during the run

	// ConcurrentCkpt runs a background checkpointer racing the workers
	// (the online fuzzy checkpoint path) instead of quiescent
	// checkpoints between phases; Incremental makes every other one an
	// incremental checkpoint. Both only matter when Checkpoints is set.
	ConcurrentCkpt bool
	Incremental    bool

	// Backend selects the log-device implementation: "" or "sim" for
	// the simulated-latency device, "file" for real files under Dir (a
	// fresh temp directory when Dir is empty). The fault plan drives
	// both identically, so a seed replays on either backend.
	Backend string
	Dir     string

	// Fault plan knobs (see disk.FaultConfig). CrashOp <= 0 means the
	// round runs to completion and shuts down cleanly.
	CrashOp    int64
	CrashTorn  float64
	DropFsyncP float64
	IOErrorP   float64
}

// FromSeed derives a round configuration from a seed: worker count,
// durability policy, stream count, checkpointing, fault rates and the
// crash point are all sampled deterministically, so the seed alone
// reproduces the round.
func FromSeed(seed int64) Config {
	r := xrand.New(disk.DeriveSeed(seed, 0))
	cfg := Config{
		Seed:          seed,
		Workers:       3 + r.Intn(3),
		TxnsPerWorker: 20 + r.Intn(25),
		Keys:          192,
		Parallel:      r.Intn(2) == 1,
		Policy:        wal.FlushPolicy(r.Intn(3)),
		Checkpoints:   r.Intn(2) == 1,
		CrashTorn:     -1, // seeded torn fraction
	}
	if r.Intn(8) != 0 {
		// Most rounds crash mid-run; the rest shut down cleanly and
		// assert full durability. Log-uniform crash points: lazy
		// policies batch heavily and consume few device ops, eager
		// group commit consumes hundreds — both scales must be hit.
		cfg.CrashOp = int64(1 + r.Intn(1<<uint(1+r.Intn(8))))
	}
	if r.Intn(2) == 1 {
		cfg.DropFsyncP = 0.25 * r.Float64()
	}
	if r.Intn(2) == 1 {
		cfg.IOErrorP = 0.2 * r.Float64()
	}
	// Sampled last so the additions leave every older field's value for
	// a given seed unchanged.
	if cfg.Checkpoints {
		cfg.ConcurrentCkpt = r.Intn(2) == 1
		cfg.Incremental = r.Intn(2) == 1
	}
	return cfg
}

// Result is one round's outcome.
type Result struct {
	Cfg        Config
	Acked      int // commits the engine acknowledged
	Rolled     int // transactions rolled back (voluntarily or as victims)
	Unfinished int // commits in flight when the machine died
	Crashed    bool
	Ops        int64  // device operations the fault plan adjudicated
	Lies       int    // fsyncs the devices silently dropped
	Entries    int    // records recovered from the durable images
	Digest     uint64 // fault-schedule digest (seed-pure; see disk.Plan)
	Violations []string
}

// ReproCmd returns the exact command that replays this round.
func (r *Result) ReproCmd() string {
	b := ""
	if r.Cfg.Backend == "file" {
		b = " -backend file"
	}
	return fmt.Sprintf("go run ./cmd/torture -seed %d -crashes 1%s", r.Cfg.Seed, b)
}

// journalOp is one successfully executed statement of a transaction,
// in execution order — the ground truth the recovered log is compared
// against.
type journalOp struct {
	op    byte
	space uint32
	key   uint64
	row   []byte
}

// txnRec is the harness's record of one transaction.
type txnRec struct {
	ops       []journalOp
	committed bool // Commit was called
	acked     bool // Commit returned nil
}

type journal struct {
	mu    sync.Mutex
	txns  map[uint64]*txnRec
	ckpts map[uint64]bool // checkpoint ids (attempted, even if they crashed)
}

func (j *journal) record(id uint64, rec *txnRec, committed, acked bool) {
	rec.committed, rec.acked = committed, acked
	j.mu.Lock()
	j.txns[id] = rec
	j.mu.Unlock()
}

func (j *journal) recordCkpt(id uint64) {
	j.mu.Lock()
	j.ckpts[id] = true
	j.mu.Unlock()
}

// openTables creates the harness schema: table "a" with a secondary
// index over the row's value field, and plain table "b". Recovery
// re-creates the same schema before replay.
func openTables(db *engine.DB) []*storage.Table {
	a, err := db.CreateTable("a")
	if err != nil {
		panic(err)
	}
	if err := a.CreateIndex(db.Pool().NewHandle(), "byval", rowIndexKey); err != nil {
		panic(err)
	}
	b, err := db.CreateTable("b")
	if err != nil {
		panic(err)
	}
	return []*storage.Table{a, b}
}

// Run executes one torture round and returns its audited result.
func Run(cfg Config) *Result {
	plan := disk.NewPlan(cfg.Seed, disk.FaultConfig{
		IOErrorP:   cfg.IOErrorP,
		DropFsyncP: cfg.DropFsyncP,
		CrashOp:    cfg.CrashOp,
		CrashTorn:  cfg.CrashTorn,
	})
	nDev := 1
	if cfg.Parallel {
		nDev = 2
	}
	devs := make([]disk.Device, nDev)
	var tmpDir string
	if cfg.Backend == "file" {
		dir := cfg.Dir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "vats-torture-")
			if err != nil {
				panic(err)
			}
			tmpDir = dir
		}
		for i := range devs {
			fd, err := disk.OpenFile(disk.FileConfig{
				Path:          filepath.Join(dir, fmt.Sprintf("log%d.wal", i)),
				Name:          fmt.Sprintf("log%d", i),
				PreallocBytes: 1 << 20,
				BlockSize:     4096,
				Faults:        plan, // one machine, one plan: all devices die together
			})
			if err != nil {
				panic(err)
			}
			devs[i] = fd
		}
	} else {
		for i := range devs {
			devs[i] = disk.New(disk.Config{
				Name:          fmt.Sprintf("log%d", i),
				MedianLatency: 5 * time.Microsecond,
				BlockSize:     4096,
				Seed:          cfg.Seed + int64(i),
				Faults:        plan, // one machine, one plan: all devices die together
			})
		}
	}
	db := engine.Open(engine.Config{
		DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: cfg.Seed + 100}),
		LogDevices:       devs,
		FlushPolicy:      cfg.Policy,
		LogFlushInterval: time.Millisecond,
		LockTimeout:      250 * time.Millisecond,
		DeadlockInterval: time.Millisecond,
		BufferCapacity:   64, // small on purpose: evictions and write-backs churn
		PageSize:         1024,
	})
	tabs := openTables(db)
	j := &journal{txns: make(map[uint64]*txnRec), ckpts: make(map[uint64]bool)}

	phases := 1
	if cfg.Checkpoints {
		phases = 4
	}
	perPhase := (cfg.TxnsPerWorker + phases - 1) / phases

	// Online checkpointing: a background checkpointer races the workers
	// for the whole run, exercising the fuzzy-snapshot path (begin
	// marker, concurrent commits straddling the snapshot, crashes
	// between begin and end markers).
	stopCkpt := make(chan struct{})
	var ckptWG sync.WaitGroup
	if cfg.Checkpoints && cfg.ConcurrentCkpt {
		ckptWG.Add(1)
		go func() {
			defer ckptWG.Done()
			r := xrand.New(disk.DeriveSeed(cfg.Seed, 999))
			for i := 0; ; i++ {
				select {
				case <-stopCkpt:
					return
				case <-time.After(time.Duration(100+r.Intn(900)) * time.Microsecond):
				}
				var id uint64
				var err error
				if cfg.Incremental && i%2 == 1 {
					id, err = db.CheckpointIncremental()
				} else {
					id, err = db.Checkpoint()
				}
				if id != 0 {
					j.recordCkpt(id)
				}
				if err != nil {
					return // crash point hit, or the engine died
				}
			}
		}()
	}

	for ph := 0; ph < phases; ph++ {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w, ph int) {
				defer wg.Done()
				runWorker(db, tabs, j, cfg, w, ph, perPhase)
			}(w, ph)
		}
		wg.Wait()
		if plan.Crashed() {
			break
		}
		if cfg.Checkpoints && !cfg.ConcurrentCkpt && ph < phases-1 {
			// Quiescent by construction: every worker has joined.
			id, err := db.Checkpoint()
			if id != 0 {
				j.recordCkpt(id)
			}
			if err != nil {
				break // the checkpoint hit the crash point (or the engine died)
			}
		}
	}
	close(stopCkpt)
	ckptWG.Wait()

	res := &Result{Cfg: cfg, Digest: plan.ScheduleDigest(1024)}
	if plan.Crashed() {
		db.Crash()
	} else {
		db.Close() // clean shutdown: final flush, then full durability is owed
	}
	// Re-read after shutdown: the final close-flush itself can hit the
	// crash point, and that round must be judged as a crash, not as a
	// clean shutdown owing full durability.
	res.Crashed = plan.Crashed()
	res.Ops = plan.Ops()
	for _, rec := range j.txns {
		switch {
		case rec.acked:
			res.Acked++
		case rec.committed:
			res.Unfinished++
		default:
			res.Rolled++
		}
	}
	for _, d := range devs {
		res.Lies += d.Lies()
	}
	verify(res, db, devs, j)
	// File devices pread their durable images out of the open files, so
	// they close only after the audit; their scratch dir dies with them.
	for _, d := range devs {
		_ = d.Close()
	}
	if tmpDir != "" {
		_ = os.RemoveAll(tmpDir)
	}
	return res
}

// runWorker executes one worker's share of a phase.
func runWorker(db *engine.DB, tabs []*storage.Table, j *journal, cfg Config, w, phase, n int) {
	r := xrand.New(disk.DeriveSeed(cfg.Seed, 1000*w+phase+1))
	s := db.NewSession()
	for i := 0; i < n; i++ {
		if stop := runTxnOnce(s, tabs, j, cfg, r); stop {
			return
		}
	}
}

// runTxnOnce runs one transaction: 1-4 random statements, then a
// voluntary rollback (10%) or a commit. Returns true when the worker
// should stop (machine crashed or engine closed).
func runTxnOnce(s *engine.Session, tabs []*storage.Table, j *journal, cfg Config, r *xrand.Source) bool {
	tx := s.Begin()
	rec := &txnRec{}
	abort := func(stop bool) bool {
		tx.Rollback()
		j.record(tx.ID(), rec, false, false)
		return stop
	}
	nops := 1 + r.Intn(4)
	for k := 0; k < nops; k++ {
		t := tabs[r.Intn(len(tabs))]
		key := uint64(1 + r.Intn(int(cfg.Keys)))
		var err error
		var op journalOp
		switch c := r.Intn(10); {
		case c < 4:
			row := makeRow(r)
			err = tx.Insert(t, key, row)
			op = journalOp{op: engine.RedoInsert, space: t.Space(), key: key, row: row}
		case c < 7:
			row := makeRow(r)
			err = tx.Update(t, key, row)
			op = journalOp{op: engine.RedoUpdate, space: t.Space(), key: key, row: row}
		case c < 9:
			err = tx.Delete(t, key)
			op = journalOp{op: engine.RedoDelete, space: t.Space(), key: key}
		default:
			_, err = tx.Get(t, key)
		}
		switch {
		case err == nil:
			if op.op != 0 {
				rec.ops = append(rec.ops, op)
			}
		case errors.Is(err, storage.ErrDuplicateKey), errors.Is(err, storage.ErrKeyNotFound):
			// Expected under random keys; the statement had no effect.
		case engine.IsRetryable(err):
			return abort(false) // deadlock victim / lock timeout
		default:
			return abort(true) // engine closed or crashed mid-statement
		}
	}
	if r.Intn(10) == 0 {
		return abort(false) // voluntary rollback
	}
	err := tx.Commit()
	switch {
	case err == nil:
		j.record(tx.ID(), rec, true, true)
		return false
	case errors.Is(err, wal.ErrCrashed):
		j.record(tx.ID(), rec, true, false)
		return true
	default:
		// Commit failed without a crash (e.g. write-retry exhaustion
		// under an extreme error rate): attempted but unacknowledged.
		j.record(tx.ID(), rec, true, false)
		return false
	}
}

// makeRow builds a row image: an 8-byte value (the secondary-index
// key source) plus variable filler.
func makeRow(r *xrand.Source) []byte {
	var b storage.RowBuilder
	v := uint64(r.Int63())
	fill := r.Intn(60)
	row := b.Uint64(v).Bytes()
	for len(row) < 8+fill {
		row = append(row, byte('a'+fill%26))
	}
	return row
}

// rowIndexKey is the secondary-index key function for table "a".
func rowIndexKey(_ uint64, row []byte) (uint64, bool) {
	if len(row) < 10 {
		return 0, false
	}
	rd := storage.NewRowReader(row)
	v := rd.Uint64()
	if !rd.Ok() {
		return 0, false
	}
	return v % 97, true
}
