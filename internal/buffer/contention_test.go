package buffer

import (
	"sync"
	"testing"
	"time"
)

// TestCriticalCostCreatesContention verifies the simulation device
// behind the LLU experiments: with a wall-time critical section, eager
// promotions from concurrent workers queue on the pool mutex, while LLU
// workers defer instead of waiting.
func TestCriticalCostCreatesContention(t *testing.T) {
	run := func(policy UpdatePolicy) Stats {
		p := NewPool(Config{
			Capacity:     64,
			PageSize:     128,
			Policy:       policy,
			CriticalCost: 200 * time.Microsecond,
		})
		for i := uint64(1); i <= 64; i++ {
			fr, err := p.Create(PageID{1, i})
			if err != nil {
				t.Fatal(err)
			}
			fr.Release()
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			seed := uint64(g)
			go func() {
				defer wg.Done()
				h := p.NewHandle()
				x := seed*2654435761 + 1
				for i := 0; i < 40; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					fr, err := h.Fetch(PageID{1, x%64 + 1})
					if err != nil {
						t.Error(err)
						return
					}
					fr.Release()
				}
			}()
		}
		wg.Wait()
		return p.Stats()
	}

	eager := run(EagerLRU)
	if eager.Mutex.Contended == 0 {
		t.Error("eager mode saw no mutex contention despite the critical-section cost")
	}
	lazy := run(LazyLRU)
	if lazy.Deferred == 0 {
		t.Error("LLU deferred nothing despite a contended critical section")
	}
}

// TestHandleWaitAccounting checks TakeWaits reports and resets.
func TestHandleWaitAccounting(t *testing.T) {
	p := NewPool(Config{Capacity: 4, PageSize: 128, CriticalCost: time.Millisecond})
	for i := uint64(1); i <= 8; i++ { // 2x capacity: misses guaranteed
		fr, err := p.Create(PageID{1, i})
		if err != nil {
			t.Fatal(err)
		}
		fr.MarkDirty()
		fr.Release()
	}
	h := p.NewHandle()
	fr, err := h.Fetch(PageID{1, 1}) // evicted by now: a miss
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
	lru, _ := h.TakeWaits()
	if lru <= 0 {
		t.Errorf("miss path reported no LRU time (%v)", lru)
	}
	lru2, io2 := h.TakeWaits()
	if lru2 != 0 || io2 != 0 {
		t.Error("TakeWaits did not reset")
	}
}
