package storage

import (
	"errors"
	"fmt"
	"testing"

	"vats/internal/buffer"
)

func newMVCCTable(t *testing.T) (*Table, *buffer.Handle) {
	t.Helper()
	p := buffer.NewPool(buffer.Config{Capacity: 256, PageSize: 1024})
	tab := NewTable("mv", 1, p)
	return tab, p.NewHandle()
}

func val(i int) []byte { return []byte(fmt.Sprintf("v%04d", i)) }

// TestSnapshotGetSeesFrozenVersion: a reader at timestamp r sees the
// value committed at r through any number of later overwrites and even
// a later delete.
func TestSnapshotGetSeesFrozenVersion(t *testing.T) {
	tab, h := newMVCCTable(t)
	clock := tab.Clock()
	if err := tab.Insert(h, 1, val(0)); err != nil {
		t.Fatal(err)
	}
	r0 := clock.BeginRead()
	for i := 1; i <= 5; i++ {
		if err := tab.Update(h, 1, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	r5 := clock.BeginRead()
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	rDel := clock.BeginRead()

	if got, err := tab.SnapshotGet(h, 1, r0); err != nil || string(got) != "v0000" {
		t.Fatalf("at r0: %q, %v; want v0000", got, err)
	}
	if got, err := tab.SnapshotGet(h, 1, r5); err != nil || string(got) != "v0005" {
		t.Fatalf("at r5: %q, %v; want v0005", got, err)
	}
	if _, err := tab.SnapshotGet(h, 1, rDel); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("after delete: err = %v, want ErrKeyNotFound", err)
	}
	// Read-committed view agrees with the newest state.
	if _, err := tab.Get(h, 1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("RC get after delete: %v", err)
	}
	clock.EndRead(r0)
	clock.EndRead(r5)
	clock.EndRead(rDel)
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotScanFrozenUnderWrites: a snapshot scan started before a
// burst of writes returns exactly the pre-burst state.
func TestSnapshotScanFrozenUnderWrites(t *testing.T) {
	tab, h := newMVCCTable(t)
	for k := uint64(1); k <= 50; k++ {
		if err := tab.Insert(h, k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	r := tab.Clock().BeginRead()
	defer tab.Clock().EndRead(r)
	// Burst: delete odds, overwrite evens, insert new keys.
	for k := uint64(1); k <= 50; k += 2 {
		if err := tab.Delete(h, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(2); k <= 50; k += 2 {
		if err := tab.Update(h, k, val(9999)); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(100); k < 110; k++ {
		if err := tab.Insert(h, k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	err := tab.SnapshotScan(h, 0, ^uint64(0), r, func(k uint64, row []byte) bool {
		if k > 50 {
			t.Fatalf("scan at r saw post-snapshot key %d", k)
		}
		if string(row) != string(val(int(k))) {
			t.Fatalf("key %d: %q, want frozen %q", k, row, val(int(k)))
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 50 {
		t.Fatalf("snapshot scan saw %d rows, want 50", seen)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestTxnMarkerVisibility: an uncommitted transactional write is
// invisible to snapshots (they see the pre-image) until StampCommit;
// after StampAbort the pre-image is restored.
func TestTxnMarkerVisibility(t *testing.T) {
	tab, h := newMVCCTable(t)
	clock := tab.Clock()
	if err := tab.Insert(h, 1, val(1)); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateTxn(h, 42, 1, val(2)); err != nil {
		t.Fatal(err)
	}
	r := clock.BeginRead()
	if got, err := tab.SnapshotGet(h, 1, r); err != nil || string(got) != "v0001" {
		t.Fatalf("snapshot over marker: %q, %v; want pre-image v0001", got, err)
	}
	clock.EndRead(r)

	// Commit path: stamp, then complete.
	cts := clock.Allocate()
	tab.StampCommit(42, 1, cts)
	clock.Complete(cts)
	r2 := clock.BeginRead()
	if got, err := tab.SnapshotGet(h, 1, r2); err != nil || string(got) != "v0002" {
		t.Fatalf("after stamp: %q, %v; want v0002", got, err)
	}
	clock.EndRead(r2)

	// Abort path on a second write: undo rewrites bytes, StampAbort pops.
	if err := tab.UpdateTxn(h, 43, 1, val(3)); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateTxn(h, 43, 1, val(2)); err != nil { // undo write
		t.Fatal(err)
	}
	tab.StampAbort(43, 1)
	r3 := clock.BeginRead()
	if got, err := tab.SnapshotGet(h, 1, r3); err != nil || string(got) != "v0002" {
		t.Fatalf("after abort: %q, %v; want v0002", got, err)
	}
	clock.EndRead(r3)
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotHintSurvivesAbortedRelocation: a frozen index root hints
// {t1, oldRID}; a concurrent transaction relocates the row (tombstoning
// the hinted slot) and then ABORTS, so StampAbort restores timestamp t1
// inline at the NEW rid with an empty chain. The snapshot read must
// resolve the inline version — a chain walk from the restored meta
// would skip it and lose the row.
func TestSnapshotHintSurvivesAbortedRelocation(t *testing.T) {
	tab, h := newMVCCTable(t)
	clock := tab.Clock()
	for k := uint64(1); k <= 3; k++ {
		if err := tab.Insert(h, k, val(int(k))); err != nil {
			t.Fatal(err)
		}
	}
	r := clock.BeginRead()
	defer clock.EndRead(r)
	it := tab.NewSnapshotIter(h, 0, ^uint64(0), r) // hints frozen here

	// Grow key 2 past its slot (forces relocation), then abort: the
	// undo write shrinks the image back in place and StampAbort pops the
	// pre-transaction timestamp back inline at the relocated rid.
	big := make([]byte, 256)
	for i := range big {
		big[i] = 'x'
	}
	if err := tab.UpdateTxn(h, 99, 2, big); err != nil {
		t.Fatal(err)
	}
	if err := tab.UpdateTxn(h, 99, 2, val(2)); err != nil { // undo write
		t.Fatal(err)
	}
	tab.StampAbort(99, 2)

	got := map[uint64]string{}
	for {
		k, row, ok := it.Next()
		if !ok {
			break
		}
		got[k] = string(row)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("snapshot scan saw %d rows, want 3: %v", len(got), got)
	}
	for k := uint64(1); k <= 3; k++ {
		if got[k] != string(val(int(k))) {
			t.Fatalf("key %d: %q, want %q", k, got[k], val(int(k)))
		}
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestUpdatePlacementFailureLeaksNoVersion: when the relocate path fails
// to place the new image after pushing the superseded version onto the
// chain, the push must be undone — otherwise the arena holds a version
// no chain reaches and invariant checks fail. updateLocked is driven
// directly with an image too large for any page, which the public
// wrappers pre-reject, to force placeRowLocked to fail.
func TestUpdatePlacementFailureLeaksNoVersion(t *testing.T) {
	tab, h := newMVCCTable(t)
	if err := tab.Insert(h, 1, val(1)); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 4096)
	tab.mu.Lock()
	err := tab.updateLocked(h, writeMarker(7), 1, huge)
	tab.mu.Unlock()
	if !errors.Is(err, ErrRowTooLarge) {
		t.Fatalf("updateLocked(huge): %v, want ErrRowTooLarge", err)
	}
	if st := tab.MVCCStats(); st.Versions != 0 {
		t.Fatalf("failed update leaked %d arena versions", st.Versions)
	}
	if _, onList := tab.hist[1]; onList {
		t.Fatal("failed update left key on the GC worklist")
	}
	if got, err := tab.Get(h, 1); err != nil || string(got) != "v0001" {
		t.Fatalf("row after failed update: %q, %v", got, err)
	}
	r := tab.Clock().BeginRead()
	if got, err := tab.SnapshotGet(h, 1, r); err != nil || string(got) != "v0001" {
		t.Fatalf("snapshot after failed update: %q, %v", got, err)
	}
	tab.Clock().EndRead(r)
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}

	// Same on the tombstone-reinsert path of insertLocked.
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	before := tab.MVCCStats().Versions
	tab.mu.Lock()
	err = tab.insertLocked(h, writeMarker(8), 1, huge)
	tab.mu.Unlock()
	if !errors.Is(err, ErrRowTooLarge) {
		t.Fatalf("insertLocked(huge): %v, want ErrRowTooLarge", err)
	}
	if after := tab.MVCCStats().Versions; after != before {
		t.Fatalf("failed reinsert grew the arena: %d -> %d", before, after)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRowRejected: zero-length row images are rejected up front on
// every write path; in particular an empty in-place update must not
// publish a new version timestamp over the old bytes.
func TestEmptyRowRejected(t *testing.T) {
	tab, h := newMVCCTable(t)
	if err := tab.Insert(h, 1, nil); !errors.Is(err, ErrEmptyRow) {
		t.Fatalf("Insert(empty): %v, want ErrEmptyRow", err)
	}
	if err := tab.InsertTxn(h, 7, 1, []byte{}); !errors.Is(err, ErrEmptyRow) {
		t.Fatalf("InsertTxn(empty): %v, want ErrEmptyRow", err)
	}
	if err := tab.Insert(h, 1, val(1)); err != nil {
		t.Fatal(err)
	}
	before, _ := tab.index.Get(1)
	if err := tab.Update(h, 1, []byte{}); !errors.Is(err, ErrEmptyRow) {
		t.Fatalf("Update(empty): %v, want ErrEmptyRow", err)
	}
	if err := tab.UpdateTxn(h, 7, 1, nil); !errors.Is(err, ErrEmptyRow) {
		t.Fatalf("UpdateTxn(empty): %v, want ErrEmptyRow", err)
	}
	after, _ := tab.index.Get(1)
	if after != before {
		t.Fatalf("meta changed across rejected empty updates: %+v -> %+v", before, after)
	}
	if got, err := tab.Get(h, 1); err != nil || string(got) != "v0001" {
		t.Fatalf("row after rejected updates: %q, %v", got, err)
	}
	if st := tab.MVCCStats(); st.Versions != 0 {
		t.Fatalf("rejected updates grew the chain: %+v", st)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestGCReclaimsBehindLowWater: versions below the low-water mark are
// freed; a registered reader pins exactly what it can still see.
func TestGCReclaimsBehindLowWater(t *testing.T) {
	tab, h := newMVCCTable(t)
	clock := tab.Clock()
	if err := tab.Insert(h, 1, val(0)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := tab.Update(h, 1, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := tab.MVCCStats(); st.Versions != 10 {
		t.Fatalf("chain holds %d versions, want 10", st.Versions)
	}
	r := clock.BeginRead() // pins nothing older than itself
	if freed := tab.GC(clock.LowWater()); freed != 10 {
		t.Fatalf("GC freed %d, want 10 (reader is at the frontier)", freed)
	}
	// The reader still resolves its frozen version (the inline one).
	if got, err := tab.SnapshotGet(h, 1, r); err != nil || string(got) != "v0010" {
		t.Fatalf("pinned reader: %q, %v", got, err)
	}
	clock.EndRead(r)

	// A tombstone below low water leaves the index entirely.
	if err := tab.Delete(h, 1); err != nil {
		t.Fatal(err)
	}
	tab.GC(clock.LowWater())
	if n := tab.index.Len(); n != 0 {
		t.Fatalf("index holds %d keys after tombstone GC, want 0", n)
	}
	if st := tab.MVCCStats(); st.Versions != 0 || st.ArenaBytes != 0 {
		t.Fatalf("arena not empty after GC: %+v", st)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestGCPinnedByOldReader: a reader below the chain keeps its version
// alive across GC.
func TestGCPinnedByOldReader(t *testing.T) {
	tab, h := newMVCCTable(t)
	clock := tab.Clock()
	if err := tab.Insert(h, 1, val(0)); err != nil {
		t.Fatal(err)
	}
	r0 := clock.BeginRead()
	for i := 1; i <= 10; i++ {
		if err := tab.Update(h, 1, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tab.GC(clock.LowWater())
	if got, err := tab.SnapshotGet(h, 1, r0); err != nil || string(got) != "v0000" {
		t.Fatalf("pinned version lost: %q, %v", got, err)
	}
	st := tab.MVCCStats()
	if st.Versions == 0 {
		t.Fatal("GC freed the pinned chain")
	}
	clock.EndRead(r0)
	if freed := tab.GC(clock.LowWater()); freed == 0 {
		t.Fatal("GC freed nothing after the reader left")
	}
	if st := tab.MVCCStats(); st.Versions != 0 {
		t.Fatalf("arena holds %d versions after reader left, want 0", st.Versions)
	}
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotIndexScanResolvesVersions: index postings from newer
// writes never produce false positives; visible versions are re-keyed.
func TestSnapshotIndexScanResolvesVersions(t *testing.T) {
	tab, h := newMVCCTable(t)
	// Index on the row's first byte.
	if err := tab.CreateIndex(h, "b0", func(pk uint64, row []byte) (uint64, bool) {
		if len(row) == 0 {
			return 0, false
		}
		return uint64(row[0]), true
	}); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		if err := tab.Insert(h, k, []byte{'a', byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	r := tab.Clock().BeginRead()
	defer tab.Clock().EndRead(r)
	// Move keys 1..5 from bucket 'a' to 'z' after the snapshot.
	for k := uint64(1); k <= 5; k++ {
		if err := tab.Update(h, k, []byte{'z', byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	// Bucket 'z' at r: the postings exist, but no visible version keys
	// to 'z' — zero rows, no false positives.
	n := 0
	if err := tab.SnapshotIndexScan(h, "b0", 'z', 'z', r, func(pk uint64, row []byte) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("bucket z at r: %d rows, want 0 (false positives)", n)
	}
	// Bucket 'a' at r yields the five unmoved keys. Keys 1..5 are the
	// DOCUMENTED false negatives: their 'a' postings were removed by the
	// post-snapshot updates before this scan froze the secondary tree.
	n = 0
	if err := tab.SnapshotIndexScan(h, "b0", 'a', 'a', r, func(pk uint64, row []byte) bool {
		if row[0] != 'a' {
			t.Fatalf("pk %d: visible row in bucket %c", pk, row[0])
		}
		if pk <= 5 {
			t.Fatalf("pk %d: posting was removed, must not reappear", pk)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("bucket a at r: %d rows, want the 5 unmoved", n)
	}
}

// TestSnapshotGetIntoZeroAlloc mirrors TestGetIntoZeroAlloc for the
// snapshot point-read fast path: when the visible version is the
// newest (inline) one, the read must not allocate.
func TestSnapshotGetIntoZeroAlloc(t *testing.T) {
	p := buffer.NewPool(buffer.Config{Capacity: 256, PageSize: 4096})
	tab := NewTable("za", 1, p)
	wh := p.NewHandle()
	row := make([]byte, 64)
	for k := uint64(1); k <= 512; k++ {
		if err := tab.Insert(wh, k, row); err != nil {
			t.Fatal(err)
		}
	}
	r := tab.Clock().BeginRead()
	defer tab.Clock().EndRead(r)
	h := p.NewHandle()
	buf := make([]byte, 0, 256)
	x := uint64(1)
	allocs := testing.AllocsPerRun(2000, func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out, err := tab.SnapshotGetInto(h, x%512+1, r, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 64 {
			t.Fatalf("row len %d", len(out))
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per SnapshotGetInto, want 0", allocs)
	}
}

// TestSnapIterNextZeroAlloc guards the iterator's steady-state: with
// all versions inline, Next allocates nothing per row.
func TestSnapIterNextZeroAlloc(t *testing.T) {
	p := buffer.NewPool(buffer.Config{Capacity: 256, PageSize: 4096})
	tab := NewTable("za", 1, p)
	wh := p.NewHandle()
	row := make([]byte, 64)
	for k := uint64(1); k <= 2048; k++ {
		if err := tab.Insert(wh, k, row); err != nil {
			t.Fatal(err)
		}
	}
	r := tab.Clock().BeginRead()
	defer tab.Clock().EndRead(r)
	h := p.NewHandle()
	it := tab.NewSnapshotIter(h, 0, ^uint64(0), r)
	// Prime: the first Next grows the reusable row buffer once.
	if _, _, ok := it.Next(); !ok {
		t.Fatal("empty iterator")
	}
	allocs := testing.AllocsPerRun(3000, func() {
		if _, _, ok := it.Next(); !ok {
			it = tab.NewSnapshotIter(h, 0, ^uint64(0), r)
		}
	})
	// The periodic iterator re-creation amortizes below the threshold;
	// steady-state Next itself must be 0-alloc.
	if allocs > 0.1 {
		t.Errorf("%v allocs per Next, want 0", allocs)
	}
}

// TestStampCommitAllocatesNothing: a commit stamp rewrites the key's
// row head in place, so it copies no B+-tree path and allocates nothing.
func TestStampCommitAllocatesNothing(t *testing.T) {
	tab, h := newMVCCTable(t)
	const keys = 200
	for k := uint64(1); k <= keys; k++ {
		if err := tab.Insert(h, k, val(int(k))); err != nil {
			t.Fatal(err)
		}
		if err := tab.UpdateTxn(h, 1000+k, k, val(int(k)+1)); err != nil {
			t.Fatal(err)
		}
	}
	clock := tab.Clock()
	k := uint64(0)
	allocs := testing.AllocsPerRun(keys-1, func() {
		k++
		cts := clock.Allocate()
		tab.StampCommit(1000+k, k, cts)
		clock.Complete(cts)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per StampCommit, want 0", allocs)
	}
	r := clock.BeginRead()
	defer clock.EndRead(r)
	for k := uint64(1); k <= keys; k++ {
		if got, err := tab.SnapshotGet(h, k, r); err != nil || string(got) != string(val(int(k)+1)) {
			t.Fatalf("key %d after stamp: %q, %v", k, got, err)
		}
	}
}
