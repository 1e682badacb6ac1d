package exec

import (
	"encoding/binary"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/storage"
)

func fastCfg() engine.Config {
	return engine.Config{
		DataDevice:     disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: 1}),
		LogDevices:     []disk.Device{disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 4096, Seed: 2})},
		LockTimeout:    500 * time.Millisecond,
		BufferCapacity: 256,
		PageSize:       1024,
	}
}

// row encodes (val uint64) as a fixed 8-byte image.
func row(val uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], val)
	return b[:]
}

func rowVal(img []byte) uint64 { return binary.LittleEndian.Uint64(img) }

// fill populates tab with keys 1..n, value = key*10.
func fill(t *testing.T, s *engine.Session, tab *storage.Table, n int) {
	t.Helper()
	tx := s.Begin()
	for k := uint64(1); k <= uint64(n); k++ {
		if err := tx.Insert(tab, k, row(k*10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestTableScanPipeline(t *testing.T) {
	db := engine.Open(fastCfg())
	defer db.Close()
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	fill(t, s, tab, 100)

	snap := s.BeginSnapshot()
	defer snap.Close()

	// filter(even key) -> project(val+1) -> limit(10)
	it := Limit(
		Project(
			Filter(NewTableScan(snap, tab, 0, ^uint64(0)), func(r Row) bool { return r.Key%2 == 0 }),
			func(dst []byte, r Row) []byte { return append(dst, row(rowVal(r.Data)+1)...) },
		),
		10,
	)
	rows, err := Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	for i, r := range rows {
		wantKey := uint64(2 * (i + 1))
		if r.Key != wantKey || rowVal(r.Data) != wantKey*10+1 {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", i, r.Key, rowVal(r.Data), wantKey, wantKey*10+1)
		}
	}
}

func TestIndexScanPipeline(t *testing.T) {
	db := engine.Open(fastCfg())
	defer db.Close()
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	// Index on val/100 buckets.
	if err := tab.CreateIndex(s.Handle(), "bucket", func(pk uint64, img []byte) (uint64, bool) {
		return rowVal(img) / 100, true
	}); err != nil {
		t.Fatal(err)
	}
	fill(t, s, tab, 50) // vals 10..500, buckets 0..5

	snap := s.BeginSnapshot()
	defer snap.Close()
	rows, err := Collect(NewIndexScan(snap, tab, "bucket", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Buckets 1..2 = vals 100..299 = keys 10..29.
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for _, r := range rows {
		if b := rowVal(r.Data) / 100; b < 1 || b > 2 {
			t.Fatalf("key %d in bucket %d, want 1..2", r.Key, b)
		}
	}

	if _, err := Collect(NewIndexScan(snap, tab, "nope", 0, 1)); err == nil {
		t.Fatal("unknown index: want error")
	}
}

func TestMergeOrdersAcrossSources(t *testing.T) {
	db := engine.Open(fastCfg())
	defer db.Close()
	ta, _ := db.CreateTable("a")
	tb, _ := db.CreateTable("b")
	s := db.NewSession()
	tx := s.Begin()
	for k := uint64(1); k <= 20; k += 2 {
		tx.Insert(ta, k, row(k)) // odd keys
		tx.Insert(tb, k+1, row(k+1))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	snap := s.BeginSnapshot()
	defer snap.Close()
	rows, err := Collect(Merge(
		NewTableScan(snap, ta, 0, ^uint64(0)),
		NewTableScan(snap, tb, 0, ^uint64(0)),
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("got %d rows, want 20", len(rows))
	}
	for i, r := range rows {
		if r.Key != uint64(i+1) || rowVal(r.Data) != uint64(i+1) {
			t.Fatalf("row %d: key %d val %d, want %d", i, r.Key, rowVal(r.Data), i+1)
		}
	}
}

func TestScanIgnoresConcurrentCommits(t *testing.T) {
	db := engine.Open(fastCfg())
	defer db.Close()
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	fill(t, s, tab, 30)

	snap := s.BeginSnapshot()
	defer snap.Close()

	it := NewTableScan(snap, tab, 0, ^uint64(0))
	var got []uint64
	for i := 0; i < 10; i++ {
		r, ok := it.Next()
		if !ok {
			t.Fatal("premature exhaustion")
		}
		got = append(got, r.Key)
	}
	// Mutate mid-scan from another session: delete the unscanned half,
	// rewrite the scanned half, insert beyond.
	s2 := db.NewSession()
	tx := s2.Begin()
	for k := uint64(11); k <= 30; k++ {
		tx.Delete(tab, k)
	}
	for k := uint64(1); k <= 10; k++ {
		tx.Update(tab, k, row(999))
	}
	tx.Insert(tab, 1000, row(1))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, r.Key)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("snapshot scan saw %d keys, want the frozen 30", len(got))
	}
	for i, k := range got {
		if k != uint64(i+1) {
			t.Fatalf("key %d = %d, want %d", i, k, i+1)
		}
	}
	// And the values are the snapshot's, not the overwrite.
	v, err := snap.Get(tab, 5)
	if err != nil || rowVal(v) != 50 {
		t.Fatalf("snap.Get(5) = %v, %v; want 50", v, err)
	}
}

// TestIterNextZeroAlloc is the executor half of the PR's 0-alloc
// guardrail: a steady-state Filter->TableScan pipeline must not
// allocate per row.
func TestIterNextZeroAlloc(t *testing.T) {
	db := engine.Open(fastCfg())
	defer db.Close()
	tab, _ := db.CreateTable("t")
	s := db.NewSession()
	fill(t, s, tab, 2048)

	snap := s.BeginSnapshot()
	defer snap.Close()
	pred := func(r Row) bool { return r.Key%2 == 0 }
	var it Iterator = Filter(NewTableScan(snap, tab, 0, ^uint64(0)), pred)
	allocs := testing.AllocsPerRun(3000, func() {
		if _, ok := it.Next(); !ok {
			it = Filter(NewTableScan(snap, tab, 0, ^uint64(0)), pred)
		}
	})
	// Pipeline re-creation amortizes to ~0; steady-state Next itself
	// must be allocation-free.
	if allocs > 0.1 {
		t.Errorf("%v allocs per Next, want 0", allocs)
	}
}
