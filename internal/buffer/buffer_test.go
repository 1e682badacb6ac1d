package buffer

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"vats/internal/disk"
)

func pool(capacity int, policy UpdatePolicy) *Pool {
	return NewPool(Config{Capacity: capacity, PageSize: 256, Policy: policy})
}

func pid(n uint64) PageID { return PageID{Space: 1, No: n} }

func mustCreate(t *testing.T, p *Pool, id PageID) Frame {
	t.Helper()
	fr, err := p.Create(id)
	if err != nil {
		t.Fatalf("create %v: %v", id, err)
	}
	return fr
}

func TestCreateFetchRoundTrip(t *testing.T) {
	p := pool(4, EagerLRU)
	h := p.NewHandle()
	fr := mustCreate(t, p, pid(1))
	fr.WithPageLock(func() {
		binary.LittleEndian.PutUint64(fr.Data(), 0xdeadbeef)
	})
	fr.MarkDirty()
	fr.Release()

	got, err := h.Fetch(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint64(got.Data()); v != 0xdeadbeef {
		t.Fatalf("data = %#x", v)
	}
	got.Release()
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 0 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestFetchUnknownPage(t *testing.T) {
	p := pool(2, EagerLRU)
	if _, err := p.NewHandle().Fetch(pid(9)); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCreateDuplicate(t *testing.T) {
	p := pool(2, EagerLRU)
	mustCreate(t, p, pid(1)).Release()
	if _, err := p.Create(pid(1)); !errors.Is(err, ErrPageExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvictionPreservesData(t *testing.T) {
	p := pool(2, EagerLRU)
	h := p.NewHandle()
	for i := uint64(1); i <= 2; i++ {
		fr := mustCreate(t, p, pid(i))
		fr.WithPageLock(func() { fr.Data()[0] = byte(i) })
		fr.MarkDirty()
		fr.Release()
	}
	// Creating a third page forces an eviction.
	mustCreate(t, p, pid(3)).Release()
	if p.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", p.Resident())
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
	// Both original pages must still be readable with their data.
	for i := uint64(1); i <= 2; i++ {
		fr, err := h.Fetch(pid(i))
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d lost its data: %d", i, fr.Data()[0])
		}
		fr.Release()
	}
}

func TestPinnedPagesAreNotEvicted(t *testing.T) {
	p := pool(2, EagerLRU)
	a := mustCreate(t, p, pid(1))
	b := mustCreate(t, p, pid(2))
	if _, err := p.Create(pid(3)); !errors.Is(err, ErrNoVictim) {
		t.Fatalf("err = %v, want ErrNoVictim with all pages pinned", err)
	}
	a.Release()
	c, err := p.Create(pid(3))
	if err != nil {
		t.Fatalf("create after unpin: %v", err)
	}
	c.Release()
	b.Release()
}

func TestReleasePanicsWhenOverUnpinned(t *testing.T) {
	p := pool(2, EagerLRU)
	fr := mustCreate(t, p, pid(1))
	fr.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fr.Release()
}

func TestMidpointInsertionAndOldSublistShare(t *testing.T) {
	p := NewPool(Config{Capacity: 16, PageSize: 64})
	for i := uint64(1); i <= 16; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	old := p.oldLen()
	// target = 6 (16 * 3/8); allow the rebalance hysteresis of ±1.
	if old < 5 || old > 7 {
		t.Fatalf("old sublist = %d, want ~6", old)
	}
	if p.listLen() != 16 {
		t.Fatalf("list length = %d, want 16", p.listLen())
	}
}

func TestMakeYoungPromotesOldPage(t *testing.T) {
	p := pool(8, EagerLRU)
	h := p.NewHandle()
	for i := uint64(1); i <= 8; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	before := p.Stats().MakeYoungs
	// Page 1 sits deep in the old region; touching it must promote.
	fr, err := h.Fetch(pid(1))
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
	if p.Stats().MakeYoungs <= before {
		t.Fatal("old-page hit did not make_young")
	}
	// A young page touched immediately again should take the fast path.
	mid := p.Stats().MakeYoungs
	fr2, _ := h.Fetch(pid(1))
	fr2.Release()
	if p.Stats().MakeYoungs != mid {
		t.Fatal("fresh young page was reordered; fast path broken")
	}
}

func TestHotSetSurvivesScan(t *testing.T) {
	// Midpoint insertion protects the young list from a sequential scan:
	// after touching a hot page repeatedly, a one-pass scan of cold pages
	// must not evict it.
	p := pool(8, EagerLRU)
	h := p.NewHandle()
	for i := uint64(1); i <= 8; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	// Heat page 1 (promote to young head).
	for j := 0; j < 3; j++ {
		fr, _ := h.Fetch(pid(1))
		fr.Release()
	}
	// Scan 6 new cold pages (fills the old region repeatedly).
	for i := uint64(100); i < 106; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	if _, err := h.Fetch(pid(1)); err != nil {
		t.Fatal("hot page was evicted by a cold scan")
	}
	if p.Stats().Misses != 0 {
		t.Fatalf("hot page fetch missed (evicted): misses=%d", p.Stats().Misses)
	}
}

func TestLazyLRUDefersUnderContention(t *testing.T) {
	p := NewPool(Config{Capacity: 64, PageSize: 64, Policy: LazyLRU})
	for i := uint64(1); i <= 64; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	// Hold the lazy lock so every promotion attempt times out.
	p.lruLazy.Lock()
	h := p.NewHandle()
	for i := uint64(1); i <= 10; i++ {
		fr, err := h.Fetch(pid(i))
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	if got := p.Stats().Deferred; got == 0 {
		t.Fatal("no promotions deferred while the LRU lock was held")
	}
	p.lruLazy.Unlock()
	// Next successful promotion drains the backlog. Page 1 is the LRU
	// tail and always in the old sublist, so its touch takes the lock.
	fr, _ := h.Fetch(pid(1))
	fr.Release()
	if got := p.Stats().Drained; got == 0 {
		t.Fatal("backlog never drained")
	}
}

func TestLazyBacklogBounded(t *testing.T) {
	p := NewPool(Config{Capacity: 64, PageSize: 64, Policy: LazyLRU})
	for i := uint64(1); i <= 64; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	// Page 1 is the LRU tail; with the lazy lock held it stays old, so
	// every fetch of it defers one more promotion.
	p.lruLazy.Lock()
	h := p.NewHandle()
	const overflow = 16
	for i := 0; i < backlogLimit+overflow; i++ {
		fr, err := h.Fetch(pid(1))
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	p.lruLazy.Unlock()
	if len(h.backlog) != backlogLimit {
		t.Fatalf("backlog holds %d, want the limit %d", len(h.backlog), backlogLimit)
	}
	if got := p.Stats().DroppedDefer; got != overflow {
		t.Fatalf("dropped %d deferred promotions, want %d", got, overflow)
	}
}

func TestConcurrentFetchStress(t *testing.T) {
	for _, policy := range []UpdatePolicy{EagerLRU, LazyLRU} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			dev := disk.New(disk.Config{MedianLatency: 5 * time.Microsecond, BlockSize: 256, Seed: 1})
			p := NewPool(Config{Capacity: 32, PageSize: 256, Policy: policy, Device: dev})
			const pages = 64 // working set 2x capacity: constant eviction
			for i := uint64(0); i < pages; i++ {
				fr := mustCreate(t, p, pid(i))
				fr.WithPageLock(func() {
					binary.LittleEndian.PutUint64(fr.Data(), i)
				})
				fr.MarkDirty()
				fr.Release()
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				seed := uint64(g)
				go func() {
					defer wg.Done()
					h := p.NewHandle()
					x := seed*2654435761 + 1
					for i := 0; i < 300; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						id := pid(x % pages)
						fr, err := h.Fetch(id)
						if err != nil {
							t.Errorf("fetch %v: %v", id, err)
							return
						}
						if got := binary.LittleEndian.Uint64(fr.Data()); got != id.No {
							t.Errorf("page %v contains %d (stale or corrupt image)", id, got)
							fr.Release()
							return
						}
						fr.Release()
					}
				}()
			}
			wg.Wait()
			if p.Resident() > 32 {
				t.Fatalf("resident %d exceeds capacity", p.Resident())
			}
			if p.listLen() != p.Resident() {
				t.Fatalf("list length %d != resident %d", p.listLen(), p.Resident())
			}
		})
	}
}

func TestWritesPersistAcrossEvictionUnderConcurrency(t *testing.T) {
	// Writers increment per-page counters under the page lock while the
	// pool churns; total increments must survive write-back/reload.
	p := NewPool(Config{Capacity: 8, PageSize: 64})
	const pages = 24
	for i := uint64(0); i < pages; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	const workers = 6
	const perWorker = 100
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		seed := uint64(g + 1)
		go func() {
			defer wg.Done()
			h := p.NewHandle()
			x := seed
			for i := 0; i < perWorker; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				id := pid(x % pages)
				fr, err := h.Fetch(id)
				if err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				fr.WithPageLock(func() {
					v := binary.LittleEndian.Uint64(fr.Data())
					binary.LittleEndian.PutUint64(fr.Data(), v+1)
				})
				fr.MarkDirty()
				fr.Release()
			}
		}()
	}
	wg.Wait()
	var total uint64
	h := p.NewHandle()
	for i := uint64(0); i < pages; i++ {
		fr, err := h.Fetch(pid(i))
		if err != nil {
			t.Fatal(err)
		}
		total += binary.LittleEndian.Uint64(fr.Data())
		fr.Release()
	}
	if total != workers*perWorker {
		t.Fatalf("total increments = %d, want %d (lost updates)", total, workers*perWorker)
	}
}

// TestFetchHitZeroAlloc guards the hit path's 0-alloc property: Frame
// is a value, the hash probe is lock-free, promotions reuse the backlog
// slice.
func TestFetchHitZeroAlloc(t *testing.T) {
	p := NewPool(Config{Capacity: 64, PageSize: 128})
	for i := uint64(1); i <= 32; i++ {
		mustCreate(t, p, pid(i)).Release()
	}
	h := p.NewHandle()
	x := uint64(1)
	allocs := testing.AllocsPerRun(2000, func() {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		fr, err := h.Fetch(pid(x%32 + 1))
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	})
	if allocs != 0 {
		t.Errorf("%v allocs per hit, want 0", allocs)
	}
}

// TestConcurrentCreateFetchEvictRace aims the race detector at the
// pin-tombstone protocol: readers race evictors for the same frames.
// Each goroutine pins one page at a time, and there are no more of them
// than frames, so a fetch always finds a victim; with more, ErrNoVictim
// would be the pool's documented answer, not a bug.
func TestConcurrentCreateFetchEvictRace(t *testing.T) {
	const capacity = 8
	p := NewPool(Config{Capacity: capacity, PageSize: 64})
	const pages = 24
	for i := uint64(0); i < pages; i++ {
		fr := mustCreate(t, p, pid(i))
		fr.WithPageLock(func() { fr.Data()[0] = byte(i) })
		fr.MarkDirty()
		fr.Release()
	}
	var wg sync.WaitGroup
	for g := 0; g < capacity; g++ {
		wg.Add(1)
		seed := uint64(g + 1)
		go func() {
			defer wg.Done()
			h := p.NewHandle()
			x := seed
			for i := 0; i < 500; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				id := pid(x % pages)
				fr, err := h.Fetch(id)
				if err != nil {
					t.Errorf("fetch %v: %v", id, err)
					return
				}
				if fr.Data()[0] != byte(id.No) {
					t.Errorf("page %v corrupt: %d", id, fr.Data()[0])
					fr.Release()
					return
				}
				fr.Release()
			}
		}()
	}
	wg.Wait()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewPool(Config{})
}

func TestPolicyAndPageIDStrings(t *testing.T) {
	if EagerLRU.String() != "EagerLRU" || LazyLRU.String() != "LazyLRU" {
		t.Error("policy strings")
	}
	if pid(3).String() != "1/3" {
		t.Error("page id string")
	}
}
