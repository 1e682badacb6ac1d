package buffer

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"vats/internal/disk"
)

// TestShardCountNormalization checks the Shards knob: rounding to a
// power of two, clamping when shards would outnumber frames, and the
// single-instance default.
func TestShardCountNormalization(t *testing.T) {
	cases := []struct {
		capacity, shards, want int
	}{
		{64, 0, 1},
		{64, 1, 1},
		{64, 3, 4},
		{64, 8, 8},
		{4, 8, 4},  // clamped: at least one frame per shard
		{1, 16, 1}, // fully clamped
	}
	for _, c := range cases {
		p := NewPool(Config{Capacity: c.capacity, PageSize: 64, Shards: c.shards})
		if got := p.Shards(); got != c.want {
			t.Errorf("capacity %d shards %d: got %d instances, want %d",
				c.capacity, c.shards, got, c.want)
		}
	}
}

// TestShardCapacityConserved checks that the per-shard budgets sum
// exactly to the configured capacity, including non-divisible splits.
func TestShardCapacityConserved(t *testing.T) {
	for _, cfg := range []struct{ capacity, shards int }{
		{64, 4}, {67, 4}, {100, 8}, {33, 16}, {4096, 8},
	} {
		p := NewPool(Config{Capacity: cfg.capacity, PageSize: 64, Shards: cfg.shards})
		sum := 0
		for _, c := range p.shardCapacities() {
			if c < 1 {
				t.Errorf("capacity %d shards %d: zero-frame shard", cfg.capacity, cfg.shards)
			}
			sum += c
		}
		if sum != cfg.capacity {
			t.Errorf("capacity %d shards %d: budgets sum to %d", cfg.capacity, cfg.shards, sum)
		}
	}
}

// TestShardedEvictionStress churns a sharded pool with a working set
// twice its capacity and verifies data integrity, the capacity bound,
// and LRU-list/resident agreement per shard. Run with -race: hits go
// through the lock-free hash probe while evictions rewrite the chains.
func TestShardedEvictionStress(t *testing.T) {
	for _, policy := range []UpdatePolicy{EagerLRU, LazyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			dev := disk.New(disk.Config{MedianLatency: 2 * time.Microsecond, BlockSize: 256, Seed: 7})
			p := NewPool(Config{Capacity: 32, PageSize: 256, Shards: 4, Policy: policy, Device: dev})
			const pages = 64
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
				seed := uint64(g + 1)
				go func() {
					defer wg.Done()
					h := p.NewHandle()
					x := seed * 2654435761
					for i := 0; i < 400; i++ {
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
				t.Fatalf("resident %d exceeds capacity 32", p.Resident())
			}
			if p.listLen() != p.Resident() {
				t.Fatalf("list length %d != resident %d", p.listLen(), p.Resident())
			}
			for i, s := range p.shards {
				s.mu.Lock()
				res := s.resident
				s.mu.Unlock()
				if res > s.capacity {
					t.Errorf("shard %d resident %d exceeds its budget %d", i, res, s.capacity)
				}
			}
			st := p.Stats()
			if st.Evictions == 0 {
				t.Error("no evictions despite 2x-capacity working set")
			}
		})
	}
}

// TestShardRouting checks every page is found again after creation no
// matter which shard it hashed to, and that pages spread across shards
// rather than piling into one.
func TestShardRouting(t *testing.T) {
	p := NewPool(Config{Capacity: 256, PageSize: 64, Shards: 8})
	h := p.NewHandle()
	for i := uint64(0); i < 256; i++ {
		id := PageID{Space: uint32(i % 3), No: i}
		fr, err := p.Create(id)
		if err != nil {
			t.Fatalf("create %v: %v", id, err)
		}
		fr.Release()
		got, err := h.Fetch(id)
		if err != nil {
			t.Fatalf("fetch %v right after create: %v", id, err)
		}
		got.Release()
	}
	used := 0
	for _, s := range p.shards {
		s.mu.Lock()
		if s.resident > 0 {
			used++
		}
		s.mu.Unlock()
	}
	if used < len(p.shards)/2 {
		t.Errorf("only %d of %d shards used: bad hash spread", used, len(p.shards))
	}
}

// TestFetchHitZeroAlloc guards the PR's 0-alloc acceptance criterion:
// a buffer-pool hit must not allocate (Frame is a value, the hash probe
// is lock-free, promotions reuse the backlog slice).
func TestFetchHitZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 8} {
		p := NewPool(Config{Capacity: 64, PageSize: 128, Shards: shards})
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
			t.Errorf("shards=%d: %v allocs per hit, want 0", shards, allocs)
		}
	}
}

// TestConcurrentCreateFetchEvictRace aims the race detector at the
// pin-tombstone protocol: readers race evictors for the same frames.
// Each goroutine pins one page at a time, and there are no more of them
// than frames per shard, so a fetch always finds a victim; with more,
// ErrNoVictim would be the pool's documented answer, not a bug.
func TestConcurrentCreateFetchEvictRace(t *testing.T) {
	const capacity, shards = 8, 2
	p := NewPool(Config{Capacity: capacity, PageSize: 64, Shards: shards})
	const pages = 24
	for i := uint64(0); i < pages; i++ {
		fr := mustCreate(t, p, pid(i))
		fr.WithPageLock(func() { fr.Data()[0] = byte(i) })
		fr.MarkDirty()
		fr.Release()
	}
	var wg sync.WaitGroup
	for g := 0; g < capacity/shards; g++ {
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
}
