package torture

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/partition"
	"vats/internal/storage"
	"vats/internal/wal"
	"vats/internal/xrand"
)

// The partitioned campaign tortures the cross-partition commit path:
// one simulated machine runs an N-way partitioned engine whose log
// devices all share a single fault plan (they die together), workers
// mix single-partition and two-partition transfer transactions, the
// machine crashes at a seeded device-op — including inside the 2PC
// prepare and decide windows — and recovery is audited for the
// all-or-nothing invariant: a cross-partition transaction's effects are
// either visible on every participant or on none.
//
// Each transaction transfers an amount between two balance rows and
// inserts one unique receipt row per participant. Receipts make the
// atomicity audit exact under overwrites (a receipt key is written by
// exactly one transaction, so presence is per-transaction evidence),
// and zero-sum transfers make partial application visible in the global
// balance sum even when receipts survive.

// PartConfig is one partitioned torture round, derived from Seed by
// PartFromSeed.
type PartConfig struct {
	Seed          int64
	Partitions    int
	Workers       int
	TxnsPerWorker int
	Keys          uint64  // balance keys 1..Keys, hash-routed by identity
	MultiP        float64 // fraction of two-partition transactions
	Policy        wal.FlushPolicy

	// Fault plan knobs (see disk.FaultConfig). CrashOp <= 0 means the
	// round runs to completion and shuts down cleanly.
	CrashOp    int64
	CrashTorn  float64
	DropFsyncP float64
	IOErrorP   float64
}

// PartFromSeed derives a partitioned round configuration from a seed.
func PartFromSeed(seed int64) PartConfig {
	r := xrand.New(disk.DeriveSeed(seed, 7))
	cfg := PartConfig{
		Seed:          seed,
		Partitions:    2 + r.Intn(3),
		Workers:       2 + r.Intn(3),
		TxnsPerWorker: 15 + r.Intn(20),
		Keys:          96,
		MultiP:        0.2 + 0.5*r.Float64(),
		Policy:        wal.FlushPolicy(r.Intn(3)),
		CrashTorn:     -1, // seeded torn fraction
	}
	if r.Intn(8) != 0 {
		// Most rounds crash mid-run. The range is wider than the
		// single-engine campaign's because the seed load consumes the
		// first stretch of device ops; crash points beyond it land in
		// the workload — including between a participant's prepare and
		// the coordinator's decision record.
		cfg.CrashOp = int64(1 + r.Intn(1<<uint(2+r.Intn(9))))
	}
	if r.Intn(2) == 1 {
		cfg.DropFsyncP = 0.25 * r.Float64()
	}
	if r.Intn(2) == 1 {
		cfg.IOErrorP = 0.2 * r.Float64()
	}
	return cfg
}

// PartResult is one partitioned round's outcome.
type PartResult struct {
	Cfg      PartConfig
	Crashed  bool
	LoadDone bool // seed balances were durable before the workload ran
	Ops      int64
	Lies     int

	Acked   int // transactions whose Run call returned nil
	Aborted int // voluntary aborts and retry-exhausted victims
	Unknown int // in flight when the machine died
	Single  int // journaled single-partition transactions
	Multi   int // journaled two-partition transactions

	// Recovery-time 2PC census over the durable logs: Decided counts
	// gtids whose decision record survived (recovery commits them
	// everywhere), InDoubt counts prepares with no decision (recovery
	// aborts them everywhere) — the crash-in-prepare-window evidence.
	Decided int
	InDoubt int

	// AtRisk counts outcomes forgiven under the documented trades
	// (lazy-policy or lying-device commit loss), not violations.
	AtRisk int

	Violations []string
}

// ReproCmd returns the exact command that replays this round.
func (r *PartResult) ReproCmd() string {
	return fmt.Sprintf("go run ./cmd/torture -partitioned -seed %d -crashes 1", r.Cfg.Seed)
}

const partInitBalance = 1000

// partTxnRec journals one partitioned transaction: its balance keys,
// its per-participant receipt keys, and how the Run call ended.
type partTxnRec struct {
	serial int
	a, b   uint64 // balance keys (distinct)
	ra, rb uint64 // receipt keys on a's and b's partitions
	multi  bool
	acked  bool // Run returned nil
	abort  bool // voluntary abort or retry exhaustion: effects must be absent
}

type partJournal struct {
	mu   sync.Mutex
	recs []*partTxnRec
}

func (j *partJournal) add(rec *partTxnRec) {
	j.mu.Lock()
	j.recs = append(j.recs, rec)
	j.mu.Unlock()
}

// errVoluntary is the sentinel a workload closure returns to abort.
var errVoluntary = errors.New("torture: voluntary abort")

// RunPartitioned executes one partitioned torture round.
func RunPartitioned(cfg PartConfig) *PartResult {
	plan := disk.NewPlan(cfg.Seed, disk.FaultConfig{
		IOErrorP:   cfg.IOErrorP,
		DropFsyncP: cfg.DropFsyncP,
		CrashOp:    cfg.CrashOp,
		CrashTorn:  cfg.CrashTorn,
	})
	devsOf := make([][]disk.Device, cfg.Partitions)
	pdb, perr := partition.Open(partition.Options{
		Partitions: cfg.Partitions,
		Workers:    2,
		EngineFor: func(p int, _ engine.Config) engine.Config {
			dev := disk.New(disk.Config{
				Name:          fmt.Sprintf("p%dlog", p),
				MedianLatency: 5 * time.Microsecond,
				BlockSize:     4096,
				Seed:          cfg.Seed + int64(p),
				Faults:        plan, // one machine: every partition's log dies together
			})
			devsOf[p] = []disk.Device{dev}
			return engine.Config{
				DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: cfg.Seed + 100 + int64(p)}),
				LogDevices:       devsOf[p],
				FlushPolicy:      cfg.Policy,
				LogFlushInterval: time.Millisecond,
				LockTimeout:      250 * time.Millisecond,
				DeadlockInterval: time.Millisecond,
				BufferCapacity:   64,
				PageSize:         1024,
			}
		},
	})
	if perr != nil {
		panic(perr)
	}
	tab, err := pdb.CreateTable("t", func(pk uint64) uint64 { return pk })
	if err != nil {
		panic(err)
	}

	loadDone := loadPartBalances(pdb, tab, cfg)
	if loadDone {
		// Force the seed state durable at any policy, so state audits
		// have a known floor — and VERIFY from the device images rather
		// than trusting the flush: one Flush pass can lose its claim to
		// a transient I/O error or race a background pass whose fsync
		// is still in flight. A crash in here, a persistent error, or a
		// lying fsync demotes the round to log-level checks only.
		for i := 0; i < 50 && !plan.Crashed() && !seedDurable(devsOf, cfg); i++ {
			for p := 0; p < cfg.Partitions && !plan.Crashed(); p++ {
				pdb.Partition(p).Log().Flush()
			}
			time.Sleep(time.Millisecond)
		}
		loadDone = !plan.Crashed() && seedDurable(devsOf, cfg)
	}

	j := &partJournal{}
	if loadDone {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runPartWorker(pdb, tab, j, cfg, w)
			}(w)
		}
		wg.Wait()
	}

	res := &PartResult{Cfg: cfg, LoadDone: loadDone}
	if plan.Crashed() {
		pdb.Crash()
	} else {
		pdb.Close()
	}
	res.Crashed = plan.Crashed()
	res.Ops = plan.Ops()
	for _, devs := range devsOf {
		for _, d := range devs {
			res.Lies += d.Lies()
		}
	}
	for _, rec := range j.recs {
		switch {
		case rec.acked:
			res.Acked++
		case rec.abort:
			res.Aborted++
		default:
			res.Unknown++
		}
		if rec.multi {
			res.Multi++
		} else {
			res.Single++
		}
	}

	perPart := make([][]wal.Entry, cfg.Partitions)
	for p, devs := range devsOf {
		perPart[p] = wal.RecoverDeviceEntries(devs...)
	}
	verifyPartitioned(res, perPart, j)
	return res
}

// seedDurable checks the devices' durable images directly: every
// balance key's insert record must already be on disk.
func seedDurable(devsOf [][]disk.Device, cfg PartConfig) bool {
	want := int(cfg.Keys)
	got := 0
	for _, devs := range devsOf {
		for _, e := range wal.RecoverDeviceEntries(devs...) {
			op, _, key, _, err := engine.DecodeRedo(e.Payload)
			if err == nil && op == engine.RedoInsert && key >= 1 && key <= cfg.Keys {
				got++
			}
		}
	}
	return got == want
}

// loadPartBalances seeds every balance key with partInitBalance, routed
// to its partition. Returns false when the machine crashed mid-load.
func loadPartBalances(pdb *partition.DB, tab *partition.Table, cfg PartConfig) bool {
	n := cfg.Partitions
	for p := 0; p < n; p++ {
		var keys []uint64
		for k := uint64(1); k <= cfg.Keys; k++ {
			if int(k%uint64(n)) == p {
				keys = append(keys, k)
			}
		}
		err := pdb.RunOn(p, func(tx *engine.Txn) error {
			for _, k := range keys {
				var b storage.RowBuilder
				if err := tx.Insert(tab.Shard(p), k, b.Uint64(partInitBalance).Bytes()); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return false
		}
	}
	return true
}

// runPartWorker executes one worker's transactions through the router.
func runPartWorker(pdb *partition.DB, tab *partition.Table, j *partJournal, cfg PartConfig, w int) {
	r := xrand.New(disk.DeriveSeed(cfg.Seed, 5000+w))
	n := uint64(cfg.Partitions)
	// Receipt keys live far above the balance range and are unique per
	// (worker, txn); the +residue term routes each to its partition.
	rbase := n << 32
	for i := 0; i < cfg.TxnsPerWorker; i++ {
		serial := w*1_000_000 + i
		multi := r.Float64() < cfg.MultiP && cfg.Partitions > 1
		a := uint64(1 + r.Intn(int(cfg.Keys)))
		b := a
		for b == a || (multi == (b%n == a%n)) {
			b = uint64(1 + r.Intn(int(cfg.Keys)))
		}
		rec := &partTxnRec{
			serial: serial,
			a:      a, b: b,
			ra:    rbase + uint64(2*serial)*n + a%n,
			rb:    rbase + uint64(2*serial+1)*n + b%n,
			multi: multi,
		}
		amount := uint64(1 + r.Intn(10))
		voluntary := r.Intn(10) == 0
		refs := []partition.Ref{{Table: tab, Key: a}, {Table: tab, Key: b}, {Table: tab, Key: rec.ra}, {Table: tab, Key: rec.rb}}
		err := pdb.Run("torture", refs, func(tx *partition.Txn) error {
			av, err := tx.GetForUpdate(tab, a)
			if err != nil {
				return err
			}
			abal := storage.NewRowReader(av).Uint64()
			bv, err := tx.GetForUpdate(tab, b)
			if err != nil {
				return err
			}
			bbal := storage.NewRowReader(bv).Uint64()
			var ra, rb2, rra, rrb storage.RowBuilder
			if err := tx.Update(tab, a, ra.Uint64(abal-amount).Bytes()); err != nil {
				return err
			}
			if err := tx.Update(tab, b, rb2.Uint64(bbal+amount).Bytes()); err != nil {
				return err
			}
			if err := tx.Insert(tab, rec.ra, rra.Uint64(uint64(serial)).Bytes()); err != nil {
				return err
			}
			if err := tx.Insert(tab, rec.rb, rrb.Uint64(uint64(serial)).Bytes()); err != nil {
				return err
			}
			if voluntary {
				return errVoluntary
			}
			return nil
		})
		switch {
		case err == nil:
			rec.acked = true
			j.add(rec)
		case errors.Is(err, errVoluntary):
			rec.abort = true
			j.add(rec)
		case engine.IsRetryable(err):
			// Retry exhaustion: the final attempt rolled back.
			rec.abort = true
			j.add(rec)
		default:
			// Machine crashed or engine closed mid-transaction: outcome
			// unknown (a post-decision commit error lands here too — the
			// transaction may in fact be committed). The audit only
			// requires all-or-nothing for these.
			j.add(rec)
			return
		}
	}
}

// verifyPartitioned audits a finished partitioned round: the 2PC record
// census over the durable logs, a full recovery into a fresh
// partitioned engine, and the atomicity/durability invariants.
func verifyPartitioned(res *PartResult, perPart [][]wal.Entry, j *partJournal) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}
	cfg := res.Cfg
	n := cfg.Partitions

	// --- 2PC record census. ---
	prepared := make(map[uint64]map[int]bool)
	decided := make(map[uint64]bool)
	for p, entries := range perPart {
		for _, e := range entries {
			op, _, gtid, _, err := engine.DecodeRedo(e.Payload)
			if err != nil {
				continue // recovery itself will flag undecodable records
			}
			switch op {
			case engine.RedoPrepare:
				if prepared[gtid] == nil {
					prepared[gtid] = make(map[int]bool)
				}
				prepared[gtid][p] = true
			case engine.RedoDecide:
				decided[gtid] = true
			}
		}
	}
	for g := range prepared {
		if decided[g] {
			res.Decided++
		} else {
			res.InDoubt++
		}
	}
	// A decision is logged only after every participant's prepare was
	// forced durable, so a decision without any surviving prepare means
	// a device lied (forgiven) or the ordering broke (violation).
	for g := range decided {
		if len(prepared[g]) == 0 {
			if res.Lies > 0 {
				res.AtRisk++
			} else {
				bad("gtid %d: decision record with no surviving prepare", g)
			}
		}
	}

	// --- Recover into a fresh partitioned engine. ---
	pdb2, perr2 := partition.Open(partition.Options{
		Partitions: n,
		Workers:    1,
		EngineFor: func(p int, _ engine.Config) engine.Config {
			return engine.Config{
				DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: cfg.Seed + 200 + int64(p)}),
				LogDevices:       []disk.Device{disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: cfg.Seed + 300 + int64(p)})},
				LockTimeout:      250 * time.Millisecond,
				DeadlockInterval: time.Millisecond,
				BufferCapacity:   64,
				PageSize:         1024,
			}
		},
	})
	if perr2 != nil {
		panic(perr2)
	}
	defer pdb2.Close()
	tab2, err := pdb2.CreateTable("t", func(pk uint64) uint64 { return pk })
	if err != nil {
		panic(err)
	}
	if err := pdb2.Recover(perPart); err != nil {
		bad("partitioned recovery failed: %v", err)
		return
	}
	state := make(map[uint64][]byte)
	for p := 0; p < n; p++ {
		if err := pdb2.Partition(p).CheckInvariants(); err != nil {
			bad("recovered partition %d invariants: %v", p, err)
		}
		h := pdb2.Partition(p).Pool().NewHandle()
		err := tab2.Shard(p).Scan(h, 0, ^uint64(0), func(key uint64, row []byte) bool {
			if int(key%uint64(n)) != p {
				bad("row %d recovered on partition %d, belongs on %d", key, p, key%uint64(n))
			}
			state[key] = append([]byte(nil), row...)
			return true
		})
		if err != nil {
			bad("scan of recovered partition %d: %v", p, err)
			return
		}
	}

	if !res.LoadDone {
		return // crashed mid-load: no state promises beyond the above
	}

	// --- Zero-sum invariant: partial cross-partition application would
	// unbalance the books. ---
	// Commit loss under a lazy policy shifts which transfers applied,
	// but never the total: per-device durable images are prefixes, so
	// every outcome recovery can produce is a set of whole transactions.
	// A lying fsync breaks that (it can drop one participant's prepare
	// after the decision committed the other), so the books are only
	// audited when no device lied.
	if res.Lies == 0 {
		var sum uint64
		for k := uint64(1); k <= cfg.Keys; k++ {
			row, ok := state[k]
			if !ok {
				bad("balance key %d missing after recovery", k)
				continue
			}
			sum += storage.NewRowReader(row).Uint64()
		}
		if want := cfg.Keys * partInitBalance; sum != want {
			bad("balance sum %d after recovery, want %d (partial transaction applied)", sum, want)
		}
	}

	// --- Per-transaction receipts: all-or-nothing on every partition. ---
	for _, rec := range j.recs {
		_, haveA := state[rec.ra]
		_, haveB := state[rec.rb]
		if haveA != haveB {
			if rec.multi && res.Lies > 0 {
				// A lying device can lose one participant's prepare after
				// the decision committed the other — the documented trade
				// of hardware that lies about fsync.
				res.AtRisk++
			} else {
				bad("txn %d: partial state after recovery (receipt A=%v B=%v, multi=%v)",
					rec.serial, haveA, haveB, rec.multi)
			}
			continue
		}
		if rec.abort && haveA {
			bad("aborted txn %d visible after recovery", rec.serial)
		}
		if rec.acked && !haveA {
			// Multi-partition commits are always owed: prepares and the
			// decision are forced durable regardless of policy. Single-
			// partition commits follow the engine's policy trade.
			owed := rec.multi || !res.Crashed || cfg.Policy == wal.EagerFlush
			if owed && res.Lies == 0 {
				bad("acked txn %d lost after recovery (multi=%v policy=%v crashed=%v)",
					rec.serial, rec.multi, cfg.Policy, res.Crashed)
			} else {
				res.AtRisk++
			}
		}
	}
}
