package engine

import (
	"testing"

	"vats/internal/mvcc"
	"vats/internal/wal"
)

// TestCkptRegistryPruning walks the registry's pruning rule: a commit
// the watermark covers leaves at once, a commit stranded above it stays
// (and bounds truncation) until the watermark passes it, and nothing is
// pruned while a checkpoint streams.
func TestCkptRegistryPruning(t *testing.T) {
	clock := mvcc.NewClock()
	r := newCkptRegistry(clock)
	size := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.active)
	}

	// Out of order: b completes while a is in flight, so b is kept.
	a, b := clock.Allocate(), clock.Allocate()
	r.register(1, 10)
	r.register(2, 20)
	clock.Complete(b)
	r.complete(2, b)
	if n := size(); n != 2 {
		t.Fatalf("after the stranded commit: %d entries, want 2", n)
	}
	if low, ok := r.lowBound(a); !ok || low != 10 {
		t.Fatalf("lowBound(%d) = %d, %v; want 10 (txn 1 in flight)", a, low, ok)
	}
	clock.Complete(a)
	r.complete(1, a)
	if n := size(); n != 0 {
		t.Fatalf("watermark passed both: %d entries, want 0", n)
	}

	// A rollback can be what lets the watermark pass a kept entry.
	c, d := clock.Allocate(), clock.Allocate()
	r.register(3, 30)
	r.register(4, 40)
	clock.Complete(d)
	r.complete(4, d)
	clock.Complete(c)
	r.drop(3)
	if n := size(); n != 0 {
		t.Fatalf("after the drop: %d entries, want 0", n)
	}

	// A checkpoint freezes pruning, even of covered commits.
	r.beginCkpt()
	e := clock.Allocate()
	r.register(5, 50)
	clock.Complete(e)
	r.complete(5, e)
	if low, ok := r.lowBound(e - 1); !ok || low != wal.LSN(50) {
		t.Fatalf("lowBound(%d) during checkpoint = %d, %v; want 50", e-1, low, ok)
	}
	r.endCkpt()
	if n := size(); n != 0 {
		t.Fatalf("after endCkpt: %d entries, want 0", n)
	}
}
