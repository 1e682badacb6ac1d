// Package btree provides an in-memory B+-tree keyed by uint64, used by
// the storage layer for clustered and secondary indexes. Lookups
// traverse the tree level by level (the btr_cur_search_to_nth_level
// analog), so latency varies with tree height — inherent variance, as
// the paper's §4.1 notes.
//
// The tree is copy-on-write: every mutation path-copies the nodes it
// touches and atomically publishes a new root, so any number of readers
// may run lock-free and race-free against ONE writer. Readers always
// see a consistent snapshot — a lookup or range scan that started
// before a mutation keeps iterating the old version. Writers must still
// be externally synchronized with each other (the storage layer holds
// its table mutex around mutations); only reader/writer concurrency is
// handled here. Values are shared between snapshots, so a stored value
// is immutable: replace it, don't mutate it in place. Storage's
// clustered index stores pointers to row heads, which are seqlocked
// objects rewritten in place; the pointer itself never changes, so the
// tree changes only when a key is inserted or deleted.
package btree

import (
	"fmt"
	"sync/atomic"
)

// DefaultOrder is the default maximum number of children per internal
// node.
const DefaultOrder = 64

// Tree is a B+-tree mapping uint64 keys to values of type V.
type Tree[V any] struct {
	root   atomic.Pointer[node[V]]
	length atomic.Int64
	order  int // max children of an internal node; leaves hold order-1 max keys

	// writeGen stamps nodes created by the current mutation so a write
	// path can tell its own fresh copies (safe to mutate in place) from
	// published nodes (must be cloned first). Only the writer touches it.
	writeGen uint64
}

type node[V any] struct {
	gen      uint64
	leaf     bool
	keys     []uint64
	children []*node[V] // internal only: len(children) == len(keys)+1
	values   []V        // leaf only: len(values) == len(keys)
}

// New returns a tree with the given order (maximum fan-out); order < 4
// is raised to 4. Use 0 for DefaultOrder.
func New[V any](order int) *Tree[V] {
	if order == 0 {
		order = DefaultOrder
	}
	if order < 4 {
		order = 4
	}
	t := &Tree[V]{order: order}
	t.root.Store(&node[V]{leaf: true})
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return int(t.length.Load()) }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree[V]) Height() int {
	h := 1
	for n := t.root.Load(); !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// search returns the first index with keys[i] >= key. Open-coded binary
// search: this is the innermost loop of every lookup, and the closure
// sort.Search takes costs more than the search itself.
func (n *node[V]) search(key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of an internal node covers key.
// Internal keys act as separators: child i covers keys < keys[i];
// the last child covers the rest. Keys equal to the separator go right.
func (n *node[V]) childIndex(key uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < n.keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Get returns the value for key. Safe to call concurrently with one
// writer: it reads a consistent published snapshot.
func (t *Tree[V]) Get(key uint64) (V, bool) {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	i := n.search(key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.values[i], true
	}
	var zero V
	return zero, false
}

// mutable returns a node the current mutation owns: n itself if it was
// created by this mutation, otherwise a fresh copy (with one slot of
// growth headroom so a following insert rarely reallocates). Published
// nodes are never written in place.
func (t *Tree[V]) mutable(n *node[V]) *node[V] {
	if n.gen == t.writeGen {
		return n
	}
	c := &node[V]{gen: t.writeGen, leaf: n.leaf}
	c.keys = append(make([]uint64, 0, len(n.keys)+1), n.keys...)
	if n.leaf {
		c.values = append(make([]V, 0, len(n.values)+1), n.values...)
	} else {
		c.children = append(make([]*node[V], 0, len(n.children)+1), n.children...)
	}
	return c
}

// Insert sets key to v, returning true if an existing value was replaced.
func (t *Tree[V]) Insert(key uint64, v V) bool {
	t.writeGen++
	root := t.mutable(t.root.Load())
	replaced := t.insert(root, key, v)
	if !replaced {
		t.length.Add(1)
	}
	if t.overflow(root) {
		left := root
		mid, right := t.split(left)
		root = &node[V]{
			gen:      t.writeGen,
			keys:     []uint64{mid},
			children: []*node[V]{left, right},
		}
	}
	t.root.Store(root)
	return replaced
}

// insert descends into n, which the caller owns (gen == writeGen).
func (t *Tree[V]) insert(n *node[V], key uint64, v V) bool {
	if n.leaf {
		i := n.search(key)
		if i < len(n.keys) && n.keys[i] == key {
			n.values[i] = v
			return true
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		var zero V
		n.values = append(n.values, zero)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = v
		return false
	}
	ci := n.childIndex(key)
	child := t.mutable(n.children[ci])
	n.children[ci] = child
	replaced := t.insert(child, key, v)
	if t.overflow(child) {
		mid, right := t.split(child)
		n.keys = append(n.keys, 0)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = mid
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = right
	}
	return replaced
}

func (t *Tree[V]) overflow(n *node[V]) bool {
	if n.leaf {
		return len(n.keys) > t.order-1
	}
	return len(n.children) > t.order
}

// split divides an overflowing owned node into two, returning the
// separator key and the new right sibling.
func (t *Tree[V]) split(n *node[V]) (uint64, *node[V]) {
	if n.leaf {
		mid := len(n.keys) / 2
		right := &node[V]{
			gen:    t.writeGen,
			leaf:   true,
			keys:   append([]uint64(nil), n.keys[mid:]...),
			values: append([]V(nil), n.values[mid:]...),
		}
		n.keys = n.keys[:mid:mid]
		n.values = n.values[:mid:mid]
		return right.keys[0], right
	}
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node[V]{
		gen:      t.writeGen,
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Delete removes key, returning whether it was present.
func (t *Tree[V]) Delete(key uint64) bool {
	t.writeGen++
	root := t.mutable(t.root.Load())
	deleted := t.delete(root, key)
	if deleted {
		t.length.Add(-1)
	}
	var pub *node[V] = root
	if !root.leaf && len(root.children) == 1 {
		pub = root.children[0]
	}
	t.root.Store(pub)
	return deleted
}

// delete descends into n, which the caller owns.
func (t *Tree[V]) delete(n *node[V], key uint64) bool {
	if n.leaf {
		i := n.search(key)
		if i >= len(n.keys) || n.keys[i] != key {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.values = append(n.values[:i], n.values[i+1:]...)
		return true
	}
	ci := n.childIndex(key)
	child := t.mutable(n.children[ci])
	n.children[ci] = child
	deleted := t.delete(child, key)
	if deleted && t.underflow(child) {
		t.rebalance(n, ci)
	}
	return deleted
}

func (t *Tree[V]) underflow(n *node[V]) bool {
	min := (t.order - 1) / 2
	if n.leaf {
		return len(n.keys) < min
	}
	return len(n.children) < (t.order+1)/2
}

// rebalance fixes an underflowing child ci of parent n (both owned) by
// borrowing from or merging with a sibling. Siblings are published
// nodes, so they are cloned before being written.
func (t *Tree[V]) rebalance(n *node[V], ci int) {
	child := n.children[ci]

	// Try borrowing from the left sibling.
	if ci > 0 {
		if t.canLend(n.children[ci-1]) {
			left := t.mutable(n.children[ci-1])
			n.children[ci-1] = left
			if child.leaf {
				k := left.keys[len(left.keys)-1]
				v := left.values[len(left.values)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.values = left.values[:len(left.values)-1]
				child.keys = append([]uint64{k}, child.keys...)
				child.values = append([]V{v}, child.values...)
				n.keys[ci-1] = child.keys[0]
			} else {
				// Rotate through the parent separator.
				k := left.keys[len(left.keys)-1]
				c := left.children[len(left.children)-1]
				left.keys = left.keys[:len(left.keys)-1]
				left.children = left.children[:len(left.children)-1]
				child.keys = append([]uint64{n.keys[ci-1]}, child.keys...)
				child.children = append([]*node[V]{c}, child.children...)
				n.keys[ci-1] = k
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.children)-1 {
		if t.canLend(n.children[ci+1]) {
			right := t.mutable(n.children[ci+1])
			n.children[ci+1] = right
			if child.leaf {
				k := right.keys[0]
				v := right.values[0]
				right.keys = right.keys[1:]
				right.values = right.values[1:]
				child.keys = append(child.keys, k)
				child.values = append(child.values, v)
				n.keys[ci] = right.keys[0]
			} else {
				k := right.keys[0]
				c := right.children[0]
				right.keys = right.keys[1:]
				right.children = right.children[1:]
				child.keys = append(child.keys, n.keys[ci])
				child.children = append(child.children, c)
				n.keys[ci] = k
			}
			return
		}
	}
	// Merge with a sibling.
	if ci > 0 {
		n.children[ci-1] = t.mutable(n.children[ci-1])
		t.merge(n, ci-1)
	} else {
		t.merge(n, ci)
	}
}

func (t *Tree[V]) canLend(n *node[V]) bool {
	if n.leaf {
		return len(n.keys) > (t.order-1)/2
	}
	return len(n.children) > (t.order+1)/2
}

// merge folds child i+1 of n into child i and removes the separator.
// n and child i are owned; child i+1 is only read.
func (t *Tree[V]) merge(n *node[V], i int) {
	left, right := n.children[i], n.children[i+1]
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.values = append(left.values, right.values...)
	} else {
		left.keys = append(left.keys, n.keys[i])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange calls fn for each key in [lo, hi] in ascending order until
// fn returns false. The iteration runs over an immutable snapshot, so it
// is safe (and sees frozen data) even while a writer mutates the tree.
func (t *Tree[V]) AscendRange(lo, hi uint64, fn func(key uint64, v V) bool) {
	t.ascend(t.root.Load(), lo, hi, fn)
}

func (t *Tree[V]) ascend(n *node[V], lo, hi uint64, fn func(key uint64, v V) bool) bool {
	if n.leaf {
		for i := n.search(lo); i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return false
			}
			if !fn(n.keys[i], n.values[i]) {
				return false
			}
		}
		return true
	}
	for ci := n.childIndex(lo); ci < len(n.children); ci++ {
		if !t.ascend(n.children[ci], lo, hi, fn) {
			return false
		}
		// Child ci+1 holds keys >= keys[ci]; once that bound passes hi
		// nothing further right matters.
		if ci < len(n.keys) && n.keys[ci] > hi {
			return true
		}
	}
	return true
}

// Ascend calls fn over every key in ascending order until fn returns
// false.
func (t *Tree[V]) Ascend(fn func(key uint64, v V) bool) {
	t.AscendRange(0, ^uint64(0), fn)
}

// DescendRange calls fn for each key in [lo, hi] in descending order
// until fn returns false. Used for latest-first lookups (e.g. TPC-C
// Order-Status reads a customer's most recent order).
func (t *Tree[V]) DescendRange(hi, lo uint64, fn func(key uint64, v V) bool) {
	t.descend(t.root.Load(), hi, lo, fn)
}

func (t *Tree[V]) descend(n *node[V], hi, lo uint64, fn func(key uint64, v V) bool) bool {
	if n.leaf {
		// Last index with key <= hi.
		i := n.childIndex(hi) // first index with hi < keys[i]
		for i--; i >= 0; i-- {
			if n.keys[i] < lo {
				return false
			}
			if !fn(n.keys[i], n.values[i]) {
				return false
			}
		}
		return true
	}
	// Children that may contain keys <= hi, right to left.
	start := n.childIndex(hi)
	for ci := start; ci >= 0; ci-- {
		if !t.descend(n.children[ci], hi, lo, fn) {
			return false
		}
		// Child ci-1 holds keys strictly below the separator keys[ci-1];
		// once that bound is at or below lo nothing further left matters.
		if ci > 0 && n.keys[ci-1] <= lo {
			return true
		}
	}
	return true
}

// Min returns the smallest key.
func (t *Tree[V]) Min() (uint64, V, bool) {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		var zero V
		return 0, zero, false
	}
	return n.keys[0], n.values[0], true
}

// Max returns the largest key.
func (t *Tree[V]) Max() (uint64, V, bool) {
	n := t.root.Load()
	for !n.leaf {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		var zero V
		return 0, zero, false
	}
	return n.keys[len(n.keys)-1], n.values[len(n.values)-1], true
}

// Validate checks structural invariants, returning the first violation.
// Used by property tests.
func (t *Tree[V]) Validate() error {
	root := t.root.Load()
	count, _, _, err := t.validate(root, 0, ^uint64(0), true)
	if err != nil {
		return err
	}
	if count != t.Len() {
		return fmt.Errorf("btree: length %d but %d keys reachable", t.Len(), count)
	}
	// An in-order walk must be strictly sorted.
	prevSet := false
	var prev uint64
	walked := 0
	ok := true
	t.Ascend(func(k uint64, _ V) bool {
		if prevSet && k <= prev {
			ok = false
			return false
		}
		prev, prevSet = k, true
		walked++
		return true
	})
	if !ok {
		return fmt.Errorf("btree: in-order walk out of order at %d", prev)
	}
	if walked != t.Len() {
		return fmt.Errorf("btree: walk has %d keys, length %d", walked, t.Len())
	}
	return nil
}

func (t *Tree[V]) validate(n *node[V], lo, hi uint64, root bool) (count, depthMin, depthMax int, err error) {
	for i := 1; i < len(n.keys); i++ {
		if n.keys[i-1] >= n.keys[i] {
			return 0, 0, 0, fmt.Errorf("btree: unsorted keys in node")
		}
	}
	for _, k := range n.keys {
		if k < lo || k > hi {
			return 0, 0, 0, fmt.Errorf("btree: key %d outside [%d,%d]", k, lo, hi)
		}
	}
	if n.leaf {
		if len(n.values) != len(n.keys) {
			return 0, 0, 0, fmt.Errorf("btree: leaf keys/values mismatch")
		}
		if !root && len(n.keys) > t.order-1 {
			return 0, 0, 0, fmt.Errorf("btree: leaf overflow")
		}
		return len(n.keys), 1, 1, nil
	}
	if len(n.children) != len(n.keys)+1 {
		return 0, 0, 0, fmt.Errorf("btree: internal fan-out mismatch")
	}
	if !root && len(n.children) > t.order {
		return 0, 0, 0, fmt.Errorf("btree: internal overflow")
	}
	total := 0
	dmin, dmax := 1<<30, 0
	childLo := lo
	for i, c := range n.children {
		childHi := hi
		if i < len(n.keys) {
			if n.keys[i] == 0 {
				return 0, 0, 0, fmt.Errorf("btree: zero separator")
			}
			childHi = n.keys[i] - 1
		}
		cnt, dn, dx, err := t.validate(c, childLo, childHi, false)
		if err != nil {
			return 0, 0, 0, err
		}
		total += cnt
		if dn+1 < dmin {
			dmin = dn + 1
		}
		if dx+1 > dmax {
			dmax = dx + 1
		}
		if i < len(n.keys) {
			childLo = n.keys[i]
		}
	}
	if dmin != dmax {
		return 0, 0, 0, fmt.Errorf("btree: unbalanced depths %d vs %d", dmin, dmax)
	}
	return total, dmin, dmax, nil
}
