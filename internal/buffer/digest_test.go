package buffer_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"vats/internal/buffer"
)

// TestPoolBehaviourDigest pins the pool's observable single-threaded
// behaviour: a fixed create/fetch/dirty sequence over a pool a third the
// size of its working set, with every counter and the resident count
// folded into an FNV-64 hash after each operation. A changed digest means
// a hit, miss, eviction, write-back or promotion happened at a different
// step. It uses only exported API so the same file checks any rewrite of
// the pool's internals.
func TestPoolBehaviourDigest(t *testing.T) {
	// Single-threaded, LLU's spin always wins the lock, so both policies
	// promote identically and share a digest.
	want := map[buffer.UpdatePolicy]uint64{
		buffer.EagerLRU: 0x12b7bc2675359897,
		buffer.LazyLRU:  0x12b7bc2675359897,
	}
	for _, policy := range []buffer.UpdatePolicy{buffer.EagerLRU, buffer.LazyLRU} {
		t.Run(policy.String(), func(t *testing.T) {
			p := buffer.NewPool(buffer.Config{Capacity: 16, PageSize: 64, Policy: policy})
			sum := fnv.New64a()
			var word [8]byte
			fold := func() {
				st := p.Stats()
				for _, v := range []int64{st.Hits, st.Misses, st.Evictions, st.WriteBacks, st.MakeYoungs, int64(p.Resident())} {
					binary.LittleEndian.PutUint64(word[:], uint64(v))
					sum.Write(word[:])
				}
			}
			const pages = 48
			for i := uint64(0); i < pages; i++ {
				fr, err := p.Create(buffer.PageID{Space: 1, No: i})
				if err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
				if i%3 == 0 {
					fr.MarkDirty()
				}
				fr.Release()
				fold()
			}
			h := p.NewHandle()
			x := uint64(0x9E3779B97F4A7C15)
			for i := 0; i < 2000; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				fr, err := h.Fetch(buffer.PageID{Space: 1, No: x % pages})
				if err != nil {
					t.Fatalf("fetch %d: %v", i, err)
				}
				if i%5 == 0 {
					fr.MarkDirty()
				}
				fr.Release()
				fold()
			}
			if got := sum.Sum64(); got != want[policy] {
				t.Errorf("digest = %#x, want %#x", got, want[policy])
			}
		})
	}
}
