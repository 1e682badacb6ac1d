package storage_test

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"vats/internal/buffer"
	"vats/internal/storage"
)

// mvccDigestWant pins what TestTableMVCCDigest's seeded stream returns.
// A changed value means a read result, a GC count or a version-store
// gauge moved: the table's observable MVCC behaviour changed, not just
// its timing.
const mvccDigestWant uint64 = 0xd13b74a351aaa2d8

// digestTxn is one in-flight writer of the stream: its write marker
// id and the engine-style undo log (one entry per statement, before
// image included) that an abort replays in reverse.
type digestTxn struct {
	wid  uint64
	undo []digestUndo
}

type digestUndo struct {
	op  byte // 'i' insert, 'u' update, 'd' delete
	key uint64
	old []byte
}

// digestBucket files a row under its first byte modulo 16.
func digestBucket(_ uint64, row []byte) (uint64, bool) {
	if len(row) == 0 || row[0] == 'z' {
		return 0, false // partial index: 'z' rows stay out
	}
	return uint64(row[0] % 16), true
}

// TestTableMVCCDigest drives one table with a secondary index through
// 3,000 seeded operations: transactional inserts, updates (some fit in
// place, some relocate) and deletes, commits and aborts, and snapshot
// readers registering and leaving. At fixed points it runs GC and every
// read form at each registered read timestamp, and it folds every
// result plus MVCCStats into one FNV-64 digest. It pins the table's
// single-threaded MVCC semantics, so a change to how versions are
// stored can show that it returns exactly the same answers.
func TestTableMVCCDigest(t *testing.T) {
	pool := buffer.NewPool(buffer.Config{Capacity: 2048, PageSize: 1024})
	tab := storage.NewTable("digest", 1, pool)
	h := pool.NewHandle()
	if err := tab.CreateIndex(h, "bucket", digestBucket); err != nil {
		t.Fatal(err)
	}
	clock := tab.Clock()
	rng := rand.New(rand.NewSource(20261019))
	d := fnv.New64a()

	const keys = 160
	owner := make(map[uint64]*digestTxn) // record locks: key -> writer
	var open []*digestTxn
	var readers []uint64 // registered snapshot read timestamps
	nextWID := uint64(1)
	var commits, aborts, relocs int

	mkRow := func(n int) []byte {
		b := make([]byte, n)
		b[0] = byte('a' + rng.Intn(26))
		for i := 1; i < n; i++ {
			b[i] = byte('0' + rng.Intn(10))
		}
		return b
	}
	finish := func(i int, commit bool) {
		tx := open[i]
		open = append(open[:i], open[i+1:]...)
		if commit {
			cts := clock.Allocate()
			for _, u := range tx.undo {
				tab.StampCommit(tx.wid, u.key, cts)
			}
			clock.Complete(cts)
			commits++
		} else {
			for j := len(tx.undo) - 1; j >= 0; j-- {
				u := tx.undo[j]
				var err error
				switch u.op {
				case 'i':
					err = tab.DeleteTxn(h, tx.wid, u.key)
				case 'u':
					err = tab.UpdateTxn(h, tx.wid, u.key, u.old)
				case 'd':
					err = tab.InsertTxn(h, tx.wid, u.key, u.old)
				}
				digestErr(d, err)
			}
			for _, u := range tx.undo {
				tab.StampAbort(tx.wid, u.key)
			}
			aborts++
		}
		for _, u := range tx.undo {
			delete(owner, u.key)
		}
	}

	for op := 0; op < 3000; op++ {
		switch r := rng.Intn(100); {
		case r < 8 && len(open) < 4:
			open = append(open, &digestTxn{wid: nextWID})
			nextWID++
		case r < 16 && len(open) > 0:
			finish(rng.Intn(len(open)), rng.Intn(4) != 0)
		case r < 20:
			readers = append(readers, clock.BeginRead())
		case r < 23 && len(readers) > 0:
			i := rng.Intn(len(readers))
			clock.EndRead(readers[i])
			readers = append(readers[:i], readers[i+1:]...)
		default:
			if len(open) == 0 {
				continue
			}
			tx := open[rng.Intn(len(open))]
			key := uint64(rng.Intn(keys))
			if o := owner[key]; o != nil && o != tx {
				continue // another writer holds the key's record lock
			}
			owner[key] = tx
			cur, err := tab.Get(h, key)
			switch {
			case errors.Is(err, storage.ErrKeyNotFound):
				row := mkRow(8 + rng.Intn(40))
				err = tab.InsertTxn(h, tx.wid, key, row)
				if err == nil {
					tx.undo = append(tx.undo, digestUndo{op: 'i', key: key})
				}
			case err != nil:
				t.Fatalf("op %d: get %d: %v", op, key, err)
			case rng.Intn(5) == 0:
				err = tab.DeleteTxn(h, tx.wid, key)
				if err == nil {
					tx.undo = append(tx.undo, digestUndo{op: 'd', key: key, old: cur})
				}
			default:
				n := 1 + rng.Intn(len(cur)) // fits in place
				if rng.Intn(3) == 0 {
					n = len(cur) + 1 + rng.Intn(40) // relocates
					relocs++
				}
				row := mkRow(n)
				if rng.Intn(10) == 0 {
					row[0] = 'z'
				}
				err = tab.UpdateTxn(h, tx.wid, key, row)
				if err == nil {
					tx.undo = append(tx.undo, digestUndo{op: 'u', key: key, old: cur})
				}
			}
			digestErr(d, err)
			if len(tx.undo) == 0 {
				delete(owner, key) // nothing written: no lock to keep
			}
		}

		if op%150 == 149 {
			digestU64(d, uint64(tab.GC(clock.LowWater())))
		}
		if op%50 == 49 {
			tss := append([]uint64{clock.ReadTS()}, readers...)
			for _, ts := range tss {
				digestReads(t, d, tab, h, keys, ts)
			}
			digestStats(d, tab.MVCCStats())
			if err := tab.CheckInvariants(h); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	for len(open) > 0 {
		finish(0, true)
	}
	for _, ts := range readers {
		clock.EndRead(ts)
	}
	digestU64(d, uint64(tab.GC(clock.LowWater())))
	digestReads(t, d, tab, h, keys, clock.ReadTS())
	digestStats(d, tab.MVCCStats())
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}

	// The stream must exercise what it claims to pin.
	st := tab.MVCCStats()
	if commits < 100 || aborts < 20 || relocs < 50 || st.GCFreed == 0 || st.ChainWalks == 0 {
		t.Fatalf("stream too thin: commits %d aborts %d relocations %d stats %+v", commits, aborts, relocs, st)
	}
	got := d.Sum64()
	t.Logf("digest %#x: commits %d aborts %d relocations %d stats %+v", got, commits, aborts, relocs, st)
	if got != mvccDigestWant {
		t.Fatalf("digest %#x, want %#x", got, mvccDigestWant)
	}
}

// digestReads folds one battery of reads at readTS: a snapshot point
// read of every key, a snapshot scan, both read-committed scans and a
// snapshot index scan.
func digestReads(t *testing.T, d hash.Hash64, tab *storage.Table, h *buffer.Handle, keys int, readTS uint64) {
	t.Helper()
	digestU64(d, readTS)
	var buf []byte
	for k := uint64(0); k < uint64(keys); k++ {
		out, err := tab.SnapshotGetInto(h, k, readTS, buf[:0])
		digestErr(d, err)
		if err == nil {
			d.Write(out)
			buf = out
		}
	}
	fold := func(k uint64, row []byte) bool {
		digestU64(d, k)
		d.Write(row)
		return true
	}
	digestErr(d, tab.SnapshotScan(h, 10, uint64(keys)-10, readTS, fold))
	digestErr(d, tab.SnapshotIndexScan(h, "bucket", 2, 11, readTS, fold))
	digestErr(d, tab.Scan(h, 0, uint64(keys), fold))
	// IndexScan's order within a posting list follows insertion order;
	// sort each bucket's rows by key so the digest pins the set.
	type kv struct {
		k   uint64
		row string
	}
	var rows []kv
	digestErr(d, tab.IndexScan(h, "bucket", 0, 15, func(k uint64, row []byte) bool {
		rows = append(rows, kv{k, string(row)})
		return true
	}))
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].row[0]%16 != rows[j].row[0]%16 {
			return rows[i].row[0]%16 < rows[j].row[0]%16
		}
		return rows[i].k < rows[j].k
	})
	for _, r := range rows {
		fold(r.k, []byte(r.row))
	}
}

func digestStats(d hash.Hash64, st storage.MVCCStats) {
	for _, v := range []int64{st.Versions, st.ArenaBytes, st.ChainWalks, st.ChainSteps, int64(st.Limbo), st.GCRuns, st.GCFreed} {
		digestU64(d, uint64(v))
	}
}

func digestErr(d hash.Hash64, err error) {
	switch {
	case err == nil:
		d.Write([]byte{0})
	case errors.Is(err, storage.ErrKeyNotFound):
		d.Write([]byte{1})
	default:
		d.Write([]byte{2})
		d.Write([]byte(err.Error()))
	}
}

func digestU64(d hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Write(b[:])
}
