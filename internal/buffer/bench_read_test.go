package buffer

import (
	"sync/atomic"
	"testing"
)

// Read-path benchmarks: the buffer-pool hit path that every point read
// funnels through. The parallel variant exercises the lock-free page
// hash — run it with -cpu N to model an N-core server; on fewer cores
// than N, parallelism expresses as OS threads contending for them,
// which is exactly where a table mutex on the hit path would convoy.
// BENCH_PR3.json freezes the numbers from before the hash went
// lock-free.

// benchReadPool builds a pool with every page resident so the benchmark
// exercises the pure hit path (no device, no misses, no evictions).
func benchReadPool(b *testing.B, pages int) *Pool {
	b.Helper()
	p := NewPool(Config{Capacity: pages * 2, PageSize: 256})
	for i := uint64(0); i < uint64(pages); i++ {
		fr, err := p.Create(PageID{Space: 1, No: i})
		if err != nil {
			b.Fatal(err)
		}
		fr.Release()
	}
	return p
}

const benchReadPages = 2048

// BenchmarkPoolFetchHit is the single-threaded hit latency (the ±10%
// no-regression guardrail) and the 0-alloc fast-path check.
func BenchmarkPoolFetchHit(b *testing.B) {
	p := benchReadPool(b, benchReadPages)
	h := p.NewHandle()
	x := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		fr, err := h.Fetch(PageID{Space: 1, No: x % benchReadPages})
		if err != nil {
			b.Fatal(err)
		}
		fr.Release()
	}
}

// BenchmarkPoolFetchHitParallel is the multi-core point of the PR: all
// goroutines hammer the page table and LRU state at once.
func BenchmarkPoolFetchHitParallel(b *testing.B) {
	p := benchReadPool(b, benchReadPages)
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := p.NewHandle()
		x := seed.Add(0x9e3779b9)*2654435761 + 1
		for pb.Next() {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			fr, err := h.Fetch(PageID{Space: 1, No: x % benchReadPages})
			if err != nil {
				b.Error(err)
				return
			}
			fr.Release()
		}
	})
}
