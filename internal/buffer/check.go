package buffer

import "fmt"

// CheckInvariants audits the pool's bookkeeping: the LRU list must be a
// consistent doubly-linked chain partitioned young/old at oldHead with
// matching counters, the page hash must agree with the list, and the
// pool may not exceed its frame budget. The torture harness calls it at
// quiescent points; it takes the pool mutex and LRU lock in the same
// order as the miss path, so it can run against a live pool.
func (p *Pool) CheckInvariants() error {
	if err := p.checkInvariants(); err != nil {
		return fmt.Errorf("buffer: %w", err)
	}
	return nil
}

func (p *Pool) checkInvariants() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lruLock()
	defer p.lruUnlock()

	// Walk the LRU list forward: link symmetry, young-then-old
	// partition, counters.
	inList := make(map[*frame]bool)
	total, old := 0, 0
	sawOldHead := false
	for f := p.head; f != nil; f = f.next {
		if inList[f] {
			return fmt.Errorf("LRU list has a cycle at page %v", f.id)
		}
		inList[f] = true
		total++
		if f.next != nil && f.next.prev != f {
			return fmt.Errorf("broken back-link after page %v", f.id)
		}
		if f.prev == nil && f != p.head {
			return fmt.Errorf("page %v has nil prev but is not head", f.id)
		}
		if !f.inList {
			return fmt.Errorf("page %v linked but inList=false", f.id)
		}
		if f == p.oldHead {
			sawOldHead = true
		}
		if f.inOld.Load() {
			old++
			if !sawOldHead {
				return fmt.Errorf("old page %v precedes oldHead", f.id)
			}
		} else if sawOldHead {
			return fmt.Errorf("young page %v follows oldHead", f.id)
		}
	}
	if p.oldHead != nil && !sawOldHead {
		return fmt.Errorf("oldHead %v not on the list", p.oldHead.id)
	}
	if total != p.total {
		return fmt.Errorf("list holds %d frames, total=%d", total, p.total)
	}
	if old != p.oldCount {
		return fmt.Errorf("list holds %d old frames, oldCount=%d", old, p.oldCount)
	}
	if p.total > p.cfg.Capacity {
		return fmt.Errorf("total=%d exceeds capacity %d", p.total, p.cfg.Capacity)
	}
	if (p.head == nil) != (p.tail == nil) {
		return fmt.Errorf("head/tail nil mismatch")
	}
	if p.tail != nil && p.tail.next != nil {
		return fmt.Errorf("tail has a next")
	}

	// The page hash must hold exactly the listed frames, each in the
	// bucket its id hashes to, resident must match, and no hashed frame
	// may be tombstoned.
	hashed := 0
	for i := range p.buckets {
		for f := p.buckets[i].Load(); f != nil; f = f.hashNext.Load() {
			hashed++
			if p.bucketOf(f.id) != uint64(i) {
				return fmt.Errorf("page %v hashed into bucket %d, not its own", f.id, i)
			}
			if f.pins.Load() < 0 {
				return fmt.Errorf("page %v tombstoned but still hashed", f.id)
			}
			if !inList[f] {
				return fmt.Errorf("page %v hashed but not on the LRU list", f.id)
			}
		}
	}
	if hashed != p.resident {
		return fmt.Errorf("hash holds %d frames, resident=%d", hashed, p.resident)
	}
	if hashed != total {
		return fmt.Errorf("hash holds %d frames, LRU list %d", hashed, total)
	}
	return nil
}
