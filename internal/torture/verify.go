package torture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/wal"
)

// stateKey addresses one row across all tables.
type stateKey struct {
	space uint32
	key   uint64
}

// verify audits a finished round. It decodes the log devices' byte
// images (durable = what survived the crash; acked = what the devices
// claimed was durable, a superset when an fsync lied), checks them
// against the workload journal, re-runs recovery into a fresh engine,
// and compares that engine's state with an independent spec-level
// replay of the same images.
//
// Forgiveness model: a crash under LazyFlush/LazyWrite may lose acked
// commits (that is the policy's documented trade), and a lying device
// may lose them under any policy — those are classified, not flagged.
// Everything else is a violation: rolled-back or unknown transactions
// on a device, journal/log divergence, watermark overclaim, recovery
// state diverging from spec replay, or structural invariant breakage.
func verify(res *Result, db *engine.DB, devs []disk.Device, j *journal) {
	bad := func(format string, args ...any) {
		res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
	}

	// Structural invariants of the engine that just died (or closed):
	// WAL bookkeeping, buffer pool, heap/index agreement.
	if err := db.CheckInvariants(); err != nil {
		bad("source engine invariants: %v", err)
	}

	durable := wal.RecoverDeviceEntries(devs...)
	acked := wal.AckedDeviceEntries(devs...)
	claimed := wal.MergeEntries(durable, acked)
	res.Entries = len(durable)

	// --- Rolled-back and unknown transactions never reach a device. ---
	// Rollback never logs, and an id the journal has never seen cannot
	// have been produced by the workload.
	for id := range groupByTxn(claimed) {
		if j.ckpts[id] {
			continue
		}
		rec := j.txns[id]
		switch {
		case rec == nil:
			bad("txn %d present in log but never journaled", id)
		case !rec.committed:
			bad("rolled-back txn %d present in log", id)
		}
	}

	// --- Durable batches match the journal byte-for-byte. ---
	// One engine transaction is one frame, so a transaction that is
	// present at all must be complete: every statement in execution
	// order, sealed by its commit marker. (Checkpoints are exempt:
	// their snapshot rows are independent single-record batches and
	// may legitimately survive partially — recovery's completeness
	// count handles that.)
	for id, es := range groupByTxn(durable) {
		if j.ckpts[id] {
			continue
		}
		rec := j.txns[id]
		if rec == nil || !rec.committed {
			continue // already flagged above
		}
		sort.Slice(es, func(a, b int) bool { return es[a].LSN < es[b].LSN })
		if len(es) != len(rec.ops)+1 {
			bad("txn %d: %d durable records, journal has %d ops + commit", id, len(es), len(rec.ops))
			continue
		}
		for i, e := range es {
			op, space, key, row, err := engine.DecodeRedo(e.Payload)
			if err != nil {
				bad("txn %d: undecodable record at LSN %d: %v", id, e.LSN, err)
				break
			}
			if i == len(es)-1 {
				if op != engine.RedoCommit {
					bad("txn %d: last record has op %d, want commit marker", id, op)
				}
				continue
			}
			w := rec.ops[i]
			if op != w.op || space != w.space || key != w.key || !bytes.Equal(row, w.row) {
				bad("txn %d: record %d (LSN %d) diverges from journal", id, i, e.LSN)
			}
		}
	}

	// --- Every acked commit is durable, when the config owes it. ---
	// Owed after a clean shutdown under any policy, and at any crash
	// point under EagerFlush. Against the durable image when no fsync
	// lied; against the devices' own claims when one did (the engine
	// cannot out-promise its hardware).
	if strict := !res.Crashed || res.Cfg.Policy == wal.EagerFlush; strict {
		target, label := durable, "durable"
		if res.Lies > 0 {
			target, label = claimed, "claimed"
		}
		markers := make(map[uint64]bool)
		for _, e := range target {
			if op, _, _, _, err := engine.DecodeRedo(e.Payload); err == nil && op == engine.RedoCommit {
				markers[e.Txn] = true
			}
		}
		for id, rec := range j.txns {
			if rec.acked && len(rec.ops) > 0 && !markers[id] {
				bad("acked txn %d has no commit marker in the %s image", id, label)
			}
		}
	}

	// --- DurableWatermark never exceeds what the devices hold. ---
	// Every LSN at or below the watermark must exist on some device;
	// when no fsync lied it must exist in the durable image itself.
	watermark := db.Log().DurableWatermark()
	checkCover := func(es []wal.Entry, label string) {
		have := make(map[wal.LSN]bool, len(es))
		for _, e := range es {
			have[e.LSN] = true
		}
		for l := wal.LSN(1); l <= watermark; l++ {
			if !have[l] {
				bad("durable watermark is %d but LSN %d is missing from the %s image", watermark, l, label)
				return
			}
		}
	}
	checkCover(claimed, "claimed")
	if res.Lies == 0 {
		checkCover(durable, "durable")
	}

	// --- Recovery equals an independent spec-level replay. ---
	want := specReplay(durable, j)
	db2 := engine.Open(engine.Config{
		DataDevice:       disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: res.Cfg.Seed + 200}),
		LogDevices:       []disk.Device{disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: res.Cfg.Seed + 201})},
		LockTimeout:      250 * time.Millisecond,
		DeadlockInterval: time.Millisecond,
		BufferCapacity:   64,
		PageSize:         1024,
	})
	defer db2.Close()
	tabs2 := openTables(db2)
	if err := db2.Recover(durable); err != nil {
		bad("recovery failed: %v", err)
		return
	}
	if err := db2.CheckInvariants(); err != nil {
		bad("recovered engine invariants: %v", err)
	}
	got := make(map[stateKey][]byte)
	h := db2.Pool().NewHandle()
	for _, t := range tabs2 {
		space := t.Space()
		err := t.Scan(h, 0, ^uint64(0), func(key uint64, row []byte) bool {
			got[stateKey{space, key}] = append([]byte(nil), row...)
			return true
		})
		if err != nil {
			bad("scan of recovered table %q: %v", t.Name(), err)
			return
		}
	}
	for sk, wrow := range want {
		grow, ok := got[sk]
		switch {
		case !ok:
			bad("row %d/%d expected after recovery but missing", sk.space, sk.key)
		case !bytes.Equal(grow, wrow):
			bad("row %d/%d content diverges from spec replay", sk.space, sk.key)
		}
	}
	for sk := range got {
		if _, ok := want[sk]; !ok {
			bad("row %d/%d recovered but spec replay does not produce it", sk.space, sk.key)
		}
	}

	// --- MVCC audit: the version store rebuilt from WAL redo is sound. ---
	// Recovery replays as auto-committed writes, so the commit clock must
	// be fully drained, a snapshot at its frontier must equal the
	// read-committed state (no committed-version loss, since spec replay
	// just validated that state), and after one GC pass at quiescence no
	// version may survive (replay-built chains are all below low water —
	// a survivor is a ghost version).
	clk := db2.Clock()
	if !clk.Quiesced() {
		bad("recovered commit clock not quiesced")
	}
	rts := clk.BeginRead()
	snap := make(map[stateKey][]byte)
	for _, t := range tabs2 {
		space := t.Space()
		err := t.SnapshotScan(h, 0, ^uint64(0), rts, func(key uint64, row []byte) bool {
			snap[stateKey{space, key}] = append([]byte(nil), row...)
			return true
		})
		if err != nil {
			bad("snapshot scan of recovered table %q: %v", t.Name(), err)
			clk.EndRead(rts)
			return
		}
	}
	clk.EndRead(rts)
	for sk, grow := range got {
		srow, ok := snap[sk]
		switch {
		case !ok:
			bad("row %d/%d visible read-committed but lost at snapshot %d", sk.space, sk.key, rts)
		case !bytes.Equal(srow, grow):
			bad("row %d/%d diverges between snapshot and read-committed views", sk.space, sk.key)
		}
	}
	for sk := range snap {
		if _, ok := got[sk]; !ok {
			bad("ghost row %d/%d visible only at snapshot %d", sk.space, sk.key, rts)
		}
	}
	db2.RunGC()
	for _, t := range tabs2 {
		if st := t.MVCCStats(); st.Versions != 0 {
			bad("table %q: %d ghost versions survive GC at quiescence", t.Name(), st.Versions)
		}
	}
}

// groupByTxn buckets entries by transaction id.
func groupByTxn(es []wal.Entry) map[uint64][]wal.Entry {
	out := make(map[uint64][]wal.Entry)
	for _, e := range es {
		out[e.Txn] = append(out[e.Txn], e)
	}
	return out
}

// specReplay computes the state recovery MUST produce from the durable
// entries, independently of engine.Recover: pick the newest complete
// fuzzy checkpoint (begin marker present, surviving own rows match the
// end marker's declared count, every incremental ref's base rows fully
// present), lay down its snapshot (own rows plus referenced base
// rows), then apply the journal's ops for EVERY transaction whose
// commit marker survives — no LSN cutoff, because with a fuzzy
// snapshot a committed transaction's records can legitimately precede
// the begin marker — in commit-marker LSN order, which under strict
// 2PL is the original per-key conflict order (re-applying work the
// snapshot already contains converges to the same value; truncation
// only removes prefixes, so a surviving early writer implies every
// later conflicting writer also survived). Row content comes from the
// harness journal, not the log payloads, so a log corruption cannot
// cancel out of the comparison.
func specReplay(durable []wal.Entry, j *journal) map[stateKey][]byte {
	type cand struct {
		id       uint64
		hasBegin bool
		end      wal.LSN
		declared uint64
		ownRows  uint64
		refs     []struct {
			space  uint32
			baseID uint64
			count  uint64
		}
		rowsBySpace map[uint32]uint64
	}
	cands := make(map[uint64]*cand)
	get := func(id uint64) *cand {
		c, ok := cands[id]
		if !ok {
			c = &cand{id: id, rowsBySpace: make(map[uint32]uint64)}
			cands[id] = c
		}
		return c
	}
	for _, e := range durable {
		op, space, key, row, err := engine.DecodeRedo(e.Payload)
		if err != nil {
			continue
		}
		switch op {
		case engine.RedoCkptBegin:
			get(e.Txn).hasBegin = true
		case engine.RedoCkptRow:
			c := get(e.Txn)
			c.ownRows++
			c.rowsBySpace[space]++
		case engine.RedoCkptRef:
			if len(row) == 8 {
				c := get(e.Txn)
				c.refs = append(c.refs, struct {
					space  uint32
					baseID uint64
					count  uint64
				}{space, key, binary.LittleEndian.Uint64(row)})
			}
		case engine.RedoCkptEnd:
			c := get(e.Txn)
			c.end, c.declared = e.LSN, key
		}
	}
	var chosen *cand
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
		if ok && (chosen == nil || c.end > chosen.end) {
			chosen = c
		}
	}

	state := make(map[stateKey][]byte)
	if chosen != nil {
		refSpaces := make(map[uint32]uint64, len(chosen.refs))
		for _, r := range chosen.refs {
			refSpaces[r.space] = r.baseID
		}
		for _, e := range durable {
			op, space, key, row, err := engine.DecodeRedo(e.Payload)
			if err != nil || op != engine.RedoCkptRow {
				continue
			}
			use := e.Txn == chosen.id
			if !use {
				if baseID, ok := refSpaces[space]; ok && e.Txn == baseID {
					use = true
				}
			}
			if use {
				state[stateKey{space, key}] = append([]byte(nil), row...)
			}
		}
	}

	type commitMark struct {
		id  uint64
		lsn wal.LSN
	}
	var commits []commitMark
	for _, e := range durable {
		if op, _, _, _, err := engine.DecodeRedo(e.Payload); err == nil && op == engine.RedoCommit {
			commits = append(commits, commitMark{id: e.Txn, lsn: e.LSN})
		}
	}
	sort.Slice(commits, func(a, b int) bool { return commits[a].lsn < commits[b].lsn })
	for _, c := range commits {
		rec := j.txns[c.id]
		if rec == nil {
			continue // flagged as unknown already
		}
		for _, op := range rec.ops {
			sk := stateKey{op.space, op.key}
			switch op.op {
			case engine.RedoInsert, engine.RedoUpdate:
				state[sk] = op.row
			case engine.RedoDelete:
				delete(state, sk)
			}
		}
	}
	return state
}
