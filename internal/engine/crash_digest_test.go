package engine_test

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"vats/internal/engine"
	"vats/internal/storage"
)

// TestCrashRecoverDigest pins crash recovery on the engine's default
// devices: one session runs seeded insert/update/delete transactions
// over two tables (one with a secondary index), the engine crashes, a
// fresh engine replays RecoveredEntries, and both tables are folded into
// an FNV-64 hash. The digest was recorded before the log had a single
// on-device mode; under the default eager flush it also equals the
// crashed engine's own state.
func TestCrashRecoverDigest(t *testing.T) {
	const want = uint64(0x8dde078a4a189e16)
	db := engine.Open(engine.Config{})
	tabs := digestTables(t, db)
	r := rand.New(rand.NewSource(20260808))
	s := db.NewSession()
	for i := 0; i < 500; i++ {
		tx := s.Begin()
		for k := 1 + r.Intn(4); k > 0; k-- {
			tab := tabs[r.Intn(len(tabs))]
			key := uint64(1 + r.Intn(96))
			row := make([]byte, 8+r.Intn(40))
			r.Read(row)
			var err error
			switch r.Intn(3) {
			case 0:
				err = tx.Insert(tab, key, row)
			case 1:
				err = tx.Update(tab, key, row)
			default:
				err = tx.Delete(tab, key)
			}
			if err != nil && !errors.Is(err, storage.ErrDuplicateKey) && !errors.Is(err, storage.ErrKeyNotFound) {
				t.Fatal(err)
			}
		}
		if r.Intn(10) == 0 {
			tx.Rollback()
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	before := tablesDigest(t, db, tabs)
	db.Crash()

	rec := engine.Open(engine.Config{})
	defer rec.Close()
	rtabs := digestTables(t, rec)
	if err := rec.Recover(db.Log().RecoveredEntries()); err != nil {
		t.Fatal(err)
	}
	got := tablesDigest(t, rec, rtabs)
	if got != before {
		t.Errorf("recovered digest %#x differs from the crashed engine's %#x", got, before)
	}
	if got != want {
		t.Errorf("digest = %#x, want %#x", got, want)
	}
}

func digestTables(t *testing.T, db *engine.DB) []*storage.Table {
	a, err := db.CreateTable("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CreateIndex(db.NewSession().Handle(), "byfirst", func(_ uint64, row []byte) (uint64, bool) {
		return byFirst(row), true
	}); err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b")
	if err != nil {
		t.Fatal(err)
	}
	return []*storage.Table{a, b}
}

// tablesDigest folds every row of both tables, then table "a"'s index
// entries as (secondary key, primary key) pairs in sorted order: rows
// sharing a secondary key come back in insertion-history order, which
// replay does not reproduce.
func tablesDigest(t *testing.T, db *engine.DB, tabs []*storage.Table) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	fold := func(key uint64, row []byte) bool {
		binary.LittleEndian.PutUint64(buf[:], key)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		h.Write(row)
		return true
	}
	tx := db.NewSession().Begin()
	defer tx.Rollback()
	for _, tab := range tabs {
		if err := tx.Scan(tab, 0, ^uint64(0), fold); err != nil {
			t.Fatal(err)
		}
		fold(uint64(tab.Len()), nil)
	}
	var idx [][2]uint64
	if err := tx.IndexScan(tabs[0], "byfirst", 0, ^uint64(0), func(pk uint64, row []byte) bool {
		idx = append(idx, [2]uint64{byFirst(row), pk})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(idx, func(i, j int) bool {
		return idx[i][0] < idx[j][0] || idx[i][0] == idx[j][0] && idx[i][1] < idx[j][1]
	})
	for _, e := range idx {
		fold(e[0], nil)
		fold(e[1], nil)
	}
	return h.Sum64()
}

func byFirst(row []byte) uint64 { return uint64(row[0] % 16) }
