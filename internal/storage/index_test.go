package storage

import (
	"errors"
	"fmt"
	"testing"

	"vats/internal/buffer"
)

// nameBucket indexes rows by the first byte of their string field.
func nameBucket(_ uint64, img []byte) (uint64, bool) {
	r := NewRowReader(img)
	s := r.String()
	if !r.Ok() || len(s) == 0 {
		return 0, false
	}
	return uint64(s[0]), true
}

func indexedTable(t *testing.T) (*Table, *buffer.Handle) {
	t.Helper()
	p := newPool(32, 512)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	if err := tab.CreateIndex(h, "byFirstByte", nameBucket); err != nil {
		t.Fatal(err)
	}
	return tab, h
}

func TestIndexInsertAndScan(t *testing.T) {
	tab, h := indexedTable(t)
	for i, s := range []string{"apple", "avocado", "banana", "cherry"} {
		if err := tab.Insert(h, uint64(i+1), row(s)); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	err := tab.IndexScan(h, "byFirstByte", 'a', 'a', func(pk uint64, img []byte) bool {
		got = append(got, pk)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("a-rows = %v, want [1 2]", got)
	}
	// Range across buckets.
	count := 0
	tab.IndexScan(h, "byFirstByte", 'a', 'b', func(uint64, []byte) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("a..b rows = %d, want 3", count)
	}
}

func TestIndexFollowsUpdate(t *testing.T) {
	tab, h := indexedTable(t)
	tab.Insert(h, 1, row("apple"))
	if err := tab.Update(h, 1, row("zebra")); err != nil {
		t.Fatal(err)
	}
	aCount, zCount := 0, 0
	tab.IndexScan(h, "byFirstByte", 'a', 'a', func(uint64, []byte) bool { aCount++; return true })
	tab.IndexScan(h, "byFirstByte", 'z', 'z', func(uint64, []byte) bool { zCount++; return true })
	if aCount != 0 || zCount != 1 {
		t.Fatalf("after update: a=%d z=%d", aCount, zCount)
	}
}

func TestIndexFollowsUpdateWithRelocation(t *testing.T) {
	tab, h := indexedTable(t)
	tab.Insert(h, 1, row("a"))
	// Much larger image forces relocation.
	big := row("zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz")
	if err := tab.Update(h, 1, big); err != nil {
		t.Fatal(err)
	}
	found := 0
	tab.IndexScan(h, "byFirstByte", 'z', 'z', func(pk uint64, img []byte) bool {
		found++
		if rowString(t, img)[0] != 'z' {
			t.Error("stale image via index after relocation")
		}
		return true
	})
	if found != 1 {
		t.Fatalf("found %d", found)
	}
}

func TestIndexFollowsDelete(t *testing.T) {
	tab, h := indexedTable(t)
	tab.Insert(h, 1, row("apple"))
	tab.Insert(h, 2, row("avocado"))
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	tab.IndexScan(h, "byFirstByte", 'a', 'a', func(pk uint64, _ []byte) bool {
		got = append(got, pk)
		return true
	})
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	p := newPool(32, 512)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	for i, s := range []string{"ant", "bee", "cat"} {
		tab.Insert(h, uint64(i+1), row(s))
	}
	if err := tab.CreateIndex(h, "byFirstByte", nameBucket); err != nil {
		t.Fatal(err)
	}
	count := 0
	tab.IndexScan(h, "byFirstByte", 0, ^uint64(0), func(uint64, []byte) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("backfill found %d rows", count)
	}
}

func TestIndexErrors(t *testing.T) {
	tab, h := indexedTable(t)
	if err := tab.CreateIndex(h, "byFirstByte", nameBucket); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if err := tab.CreateIndex(h, "nil", nil); err == nil {
		t.Fatal("nil key func accepted")
	}
	if err := tab.IndexScan(h, "missing", 0, 1, nil); err == nil {
		t.Fatal("scan of missing index accepted")
	}
}

func TestPartialIndex(t *testing.T) {
	p := newPool(32, 512)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	// Index only rows whose string starts with 'k'.
	err := tab.CreateIndex(h, "kOnly", func(pk uint64, img []byte) (uint64, bool) {
		r := NewRowReader(img)
		s := r.String()
		if !r.Ok() || len(s) == 0 || s[0] != 'k' {
			return 0, false
		}
		return uint64(pk), true
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.Insert(h, 1, row("kite"))
	tab.Insert(h, 2, row("dog"))
	count := 0
	tab.IndexScan(h, "kOnly", 0, ^uint64(0), func(uint64, []byte) bool {
		count++
		return true
	})
	if count != 1 {
		t.Fatalf("partial index has %d entries, want 1", count)
	}
}

func TestIndexManyRowsSharedKeys(t *testing.T) {
	tab, h := indexedTable(t)
	const n = 120
	for i := 1; i <= n; i++ {
		s := fmt.Sprintf("%c-row-%03d", 'a'+(i%4), i)
		if err := tab.Insert(h, uint64(i), row(s)); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for b := 'a'; b <= 'd'; b++ {
		tab.IndexScan(h, "byFirstByte", uint64(b), uint64(b), func(_ uint64, img []byte) bool {
			if rowString(t, img)[0] != byte(b) {
				t.Errorf("bucket %c contains %q", b, rowString(t, img))
			}
			total++
			return true
		})
	}
	if total != n {
		t.Fatalf("index covers %d of %d rows", total, n)
	}
	// Delete half and recount.
	for i := 1; i <= n; i += 2 {
		if err := tab.Delete(h, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	total = 0
	tab.IndexScan(h, "byFirstByte", 0, ^uint64(0), func(uint64, []byte) bool {
		total++
		return true
	})
	if total != n/2 {
		t.Fatalf("after deletes index covers %d, want %d", total, n/2)
	}
}

func TestIndexScanMissingRowsSkipped(t *testing.T) {
	// A pk present in the secondary index but deleted concurrently is
	// skipped, not surfaced as an error.
	tab, h := indexedTable(t)
	tab.Insert(h, 1, row("apple"))
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	err := tab.IndexScan(h, "byFirstByte", 0, ^uint64(0), func(uint64, []byte) bool {
		t.Error("deleted row surfaced")
		return true
	})
	if err != nil && !errors.Is(err, ErrKeyNotFound) {
		t.Fatal(err)
	}
}

// TestIndexScanReturnsFetchError pins every frame of a 4-frame pool so
// the row's page cannot be read back: IndexScan must report the fetch
// error, as Scan does, not skip the row as if it had been deleted.
func TestIndexScanReturnsFetchError(t *testing.T) {
	p := newPool(4, 512)
	tab := NewTable("t", 1, p)
	h := p.NewHandle()
	if err := tab.CreateIndex(h, "byFirstByte", nameBucket); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(h, 1, row("apple")); err != nil {
		t.Fatal(err)
	}
	var pinned []buffer.Frame
	for i := uint64(0); i < 4; i++ {
		fr, err := p.Create(buffer.PageID{Space: 99, No: i})
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, fr)
	}
	all := func(uint64, []byte) bool { return true }
	if err := tab.Scan(h, 0, 10, all); !errors.Is(err, buffer.ErrNoVictim) {
		t.Fatalf("Scan err = %v, want %v", err, buffer.ErrNoVictim)
	}
	if err := tab.IndexScan(h, "byFirstByte", 'a', 'a', all); !errors.Is(err, buffer.ErrNoVictim) {
		t.Fatalf("IndexScan err = %v, want %v", err, buffer.ErrNoVictim)
	}
	for _, fr := range pinned {
		fr.Release()
	}
	n := 0
	if err := tab.IndexScan(h, "byFirstByte", 'a', 'a', func(uint64, []byte) bool { n++; return true }); err != nil || n != 1 {
		t.Fatalf("after unpinning: IndexScan rows = %d, err = %v; want 1, nil", n, err)
	}
}
