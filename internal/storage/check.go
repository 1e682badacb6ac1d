package storage

import (
	"fmt"

	"vats/internal/buffer"
)

// CheckInvariants audits the table's physical consistency: every
// clustered-index entry must resolve to a live row, every allocated
// page must be structurally sound, and every secondary index must agree
// exactly with the heap contents. The torture harness calls it after
// every workload round and after crash recovery.
//
// The check takes the table write lock, so it sees a quiescent
// structure: only commit stamps, which turn a write marker into a
// timestamp and move nothing, may still land. Concurrent readers are
// unaffected (they read the copy-on-write tree and seqlocked heads).
func (t *Table) CheckInvariants(h *buffer.Handle) error {
	t.mu.Lock()
	defer t.mu.Unlock()

	// Every allocated page decodes as a well-formed slotted page.
	for no := uint64(1); no <= t.nextPage.Load(); no++ {
		fr, err := h.Fetch(buffer.PageID{Space: t.space, No: no})
		if err != nil {
			return fmt.Errorf("%s: page %d: %w", t.name, no, err)
		}
		fr.Latch()
		err = pageCheck(fr.Data())
		fr.Unlatch()
		fr.Release()
		if err != nil {
			return fmt.Errorf("%s: page %d: %w", t.name, no, err)
		}
	}

	// Every live clustered-index entry resolves to a live row; collect
	// the rows for the secondary-index audit. Along the way audit the
	// version store: chains must be committed-timestamp-monotone with
	// intact row images, and the arena gauges must equal what is
	// reachable (chains plus limbo).
	rows := make(map[uint64][]byte, t.index.Len())
	reachable := 0
	var walkErr error
	t.index.Ascend(func(pk uint64, meta rowMeta) bool {
		if !meta.tomb {
			row, err := t.readRID(h, meta.rid)
			if err != nil {
				walkErr = fmt.Errorf("%s: key %d -> %v: %w", t.name, pk, meta.rid, err)
				return false
			}
			rows[pk] = row
		}
		if meta.older != 0 || meta.tomb {
			if _, ok := t.hist[pk]; !ok {
				walkErr = fmt.Errorf("%s: key %d has history but is not on the GC worklist", t.name, pk)
				return false
			}
		}
		prev := meta.ts
		for idx := meta.older; idx != 0; {
			v := t.arena.get(idx)
			reachable++
			if !tsCommitted(v.ts) {
				walkErr = fmt.Errorf("%s: key %d chain holds uncommitted marker %#x", t.name, pk, v.ts)
				return false
			}
			if tsCommitted(prev) && v.ts >= prev {
				walkErr = fmt.Errorf("%s: key %d chain not descending: %d then %d", t.name, pk, prev, v.ts)
				return false
			}
			if !v.tomb && v.row == nil {
				walkErr = fmt.Errorf("%s: key %d chain version ts=%d has freed row image", t.name, pk, v.ts)
				return false
			}
			prev = v.ts
			idx = v.older.Load()
		}
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	if len(rows) != int(t.live.Load()) {
		return fmt.Errorf("%s: Len()=%d but walk saw %d live keys", t.name, t.live.Load(), len(rows))
	}
	if got := t.arena.live.Load(); int(got) != reachable+len(t.limbo) {
		return fmt.Errorf("%s: arena holds %d live versions, reachable %d + limbo %d", t.name, got, reachable, len(t.limbo))
	}

	// Each secondary index holds exactly the postings the heap implies:
	// no stale entries, no missing entries, no duplicates.
	for _, ix := range t.loadIndexes() {
		want := 0
		for pk, row := range rows {
			key, ok := ix.keyOf(pk, row)
			if !ok {
				continue
			}
			want++
			pks, _ := ix.tree.Get(key)
			found := false
			for _, p := range pks {
				if p == pk {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%s: index %q missing pk %d under key %d", t.name, ix.name, pk, key)
			}
		}
		got := 0
		var ixErr error
		ix.tree.Ascend(func(key uint64, pks []uint64) bool {
			if len(pks) == 0 {
				ixErr = fmt.Errorf("%s: index %q has empty posting list under key %d", t.name, ix.name, key)
				return false
			}
			seen := make(map[uint64]bool, len(pks))
			for _, pk := range pks {
				if seen[pk] {
					ixErr = fmt.Errorf("%s: index %q lists pk %d twice under key %d", t.name, ix.name, pk, key)
					return false
				}
				seen[pk] = true
				row, ok := rows[pk]
				if !ok {
					ixErr = fmt.Errorf("%s: index %q has stale pk %d under key %d", t.name, ix.name, pk, key)
					return false
				}
				k2, ok := ix.keyOf(pk, row)
				if !ok || k2 != key {
					ixErr = fmt.Errorf("%s: index %q files pk %d under key %d, row maps to (%d,%v)", t.name, ix.name, pk, key, k2, ok)
					return false
				}
				got++
			}
			return true
		})
		if ixErr != nil {
			return ixErr
		}
		if got != want {
			return fmt.Errorf("%s: index %q holds %d postings, heap implies %d", t.name, ix.name, got, want)
		}
	}
	return nil
}
