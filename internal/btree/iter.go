package btree

// RangeIter is a resumable single-use iterator over [lo, hi] ascending.
// It pins the root published at construction time, so — like
// AscendRange — it iterates an immutable snapshot even while a writer
// mutates the tree. Unlike the callback form it inverts control: the
// executor's streaming operators pull one row at a time, and the range
// bounds are pushed into the tree descent (the iterator descends
// directly to lo and stops structurally at hi, never visiting subtrees
// outside the range).
//
// The descent stack lives in a fixed inline array sized for the worst
// possible height (minimum post-split fan-out is 2, so 64 levels cover
// 2^64 keys; the default order of 64 stays under 11), so Next never
// allocates.
type RangeIter[V any] struct {
	hi    uint64
	stack [64]iterFrame[V]
	depth int // frames in use; 0 means exhausted
	leaf  *node[V]
	pos   int // next index to yield within leaf
}

type iterFrame[V any] struct {
	n *node[V]
	i int // next child index to descend into
}

// NewRangeIter returns an iterator positioned at the first key >= lo.
func (t *Tree[V]) NewRangeIter(lo, hi uint64) RangeIter[V] {
	var it RangeIter[V]
	it.hi = hi
	if lo > hi {
		return it
	}
	n := t.root.Load()
	for !n.leaf {
		ci := n.childIndex(lo)
		it.stack[it.depth] = iterFrame[V]{n: n, i: ci + 1}
		it.depth++
		n = n.children[ci]
	}
	it.leaf = n
	it.pos = n.search(lo)
	it.depth++ // count the leaf itself so depth>0 means live
	it.skipEmpty()
	return it
}

// skipEmpty advances past exhausted leaves to the next leaf with keys,
// or marks the iterator done.
func (it *RangeIter[V]) skipEmpty() {
	for {
		if it.pos < len(it.leaf.keys) {
			if it.leaf.keys[it.pos] > it.hi {
				it.depth = 0 // structurally past the range
			}
			return
		}
		// Pop to the nearest ancestor with an unvisited child, then
		// descend to that subtree's leftmost leaf.
		it.depth-- // drop the leaf frame
		for it.depth > 0 {
			fr := &it.stack[it.depth-1]
			if fr.i < len(fr.n.children) {
				n := fr.n.children[fr.i]
				fr.i++
				for !n.leaf {
					it.stack[it.depth] = iterFrame[V]{n: n, i: 1}
					it.depth++
					n = n.children[0]
				}
				it.leaf, it.pos = n, 0
				it.depth++
				break
			}
			it.depth--
		}
		if it.depth == 0 {
			return
		}
	}
}

// Next returns the next key/value in the range. ok=false means the
// iterator is exhausted (and stays exhausted).
func (it *RangeIter[V]) Next() (key uint64, v V, ok bool) {
	if it.depth == 0 {
		var zero V
		return 0, zero, false
	}
	key, v = it.leaf.keys[it.pos], it.leaf.values[it.pos]
	it.pos++
	it.skipEmpty()
	return key, v, true
}
