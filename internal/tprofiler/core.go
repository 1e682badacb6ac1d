package tprofiler

import (
	"sort"
	"strings"

	"vats/internal/stats"
)

// This file is TProfiler's core: the exact streaming state of eq. 1
// (Decomp) and the paper's factor ranking over it (RankFactors, eqs.
// 2–3). The offline Profiler folds its collected traces into a Decomp;
// the live observability layer (internal/obs) keeps one per shard and
// merges them on read. Both rank with RankFactors.

// Decomp is the exact streaming state of eq. 1 over a stream of
// transactions: a Welford accumulator for the total latency and one for
// each span path, plus one covariance accumulator for every pair of
// sibling paths (paths with the same parent; flat names, like the obs
// factor names, are all siblings of each other).
//
// A path absent from a transaction counts as 0 there. A path first seen
// after n transactions is backfilled with n zeros in O(1)
// (stats.Welford.AddZeros), and its sibling pairs are reconstructed
// from the older sibling's marginal (stats.CovWithZeroY: the co-moment
// of any sequence against a constant is zero), so the state equals the
// batch computation over the same transactions up to rounding. A
// Decomp is not safe for concurrent use.
type Decomp struct {
	max     int   // cap on distinct paths (0 = none)
	dropped int64 // paths discarded at the cap
	total   stats.Welford
	paths   []string // creation order
	index   map[string]int
	nodes   []stats.Welford  // parallel to paths
	kids    map[string][]int // parent path → indices of its child paths
	pairs   []pairAcc
	vals    []float64 // Add's scratch: the transaction's value per path
	idx     []int     // Add's scratch: each span's path index, or -1
}

// pairAcc is one sibling pair: c accumulates (X_paths[i], X_paths[j]).
type pairAcc struct {
	i, j int
	c    stats.Cov
}

// NewDecomp returns an empty decomposition holding at most maxPaths
// distinct paths (0 = no cap). Paths past the cap are counted by
// Dropped, not attributed.
func NewDecomp(maxPaths int) *Decomp {
	return &Decomp{max: maxPaths, index: map[string]int{}, kids: map[string][]int{}}
}

// addPath creates the accumulators for a new path, backfilled with the
// zero history of the transactions seen so far. It reports false when
// the cap discards the path.
func (d *Decomp) addPath(path string) (int, bool) {
	if d.max > 0 && len(d.paths) >= d.max {
		d.dropped++
		return 0, false
	}
	i := len(d.paths)
	parent := parentOf(path)
	for _, j := range d.kids[parent] {
		d.pairs = append(d.pairs, pairAcc{i: j, j: i, c: stats.CovWithZeroY(d.nodes[j])})
	}
	d.kids[parent] = append(d.kids[parent], i)
	var w stats.Welford
	w.AddZeros(d.total.N())
	d.paths = append(d.paths, path)
	d.nodes = append(d.nodes, w)
	d.index[path] = i
	return i, true
}

// Add folds one transaction: its total latency and its per-path span
// totals (paths absent from spans count as 0).
func (d *Decomp) Add(total float64, spans []Span) {
	d.idx = d.idx[:0]
	for _, s := range spans {
		i, ok := d.index[s.Path]
		if !ok {
			if i, ok = d.addPath(s.Path); !ok {
				i = -1
			}
		}
		d.idx = append(d.idx, i)
	}
	if cap(d.vals) < len(d.paths) {
		d.vals = make([]float64, len(d.paths))
	}
	d.vals = d.vals[:len(d.paths)]
	clear(d.vals)
	for k, i := range d.idx {
		if i >= 0 {
			d.vals[i] += spans[k].Ms
		}
	}
	d.total.Add(total)
	for i := range d.nodes {
		d.nodes[i].Add(d.vals[i])
	}
	for k := range d.pairs {
		p := &d.pairs[k]
		p.c.Add(d.vals[p.i], d.vals[p.j])
	}
}

// Merge folds o into d exactly. Per pair, o contributes its pair
// accumulator when it saw both paths, the (x, 0) reconstruction of its
// marginal when it saw only one, and zero padding when it saw neither;
// per path, its marginal or zero padding.
func (d *Decomp) Merge(o *Decomp) {
	d.dropped += o.dropped
	on := o.total.N()
	if on == 0 {
		return
	}
	for _, path := range o.paths {
		if _, ok := d.index[path]; !ok {
			d.addPath(path)
		}
	}
	// from[i] is the index in o of d's path i, or -1.
	from := make([]int, len(d.paths))
	for i, path := range d.paths {
		j, ok := o.index[path]
		if !ok {
			j = -1
		}
		from[i] = j
	}
	oPair := make(map[[2]int]*stats.Cov, len(o.pairs))
	for k := range o.pairs {
		p := &o.pairs[k]
		oPair[[2]int{p.i, p.j}] = &p.c
	}
	for i := range d.nodes {
		if j := from[i]; j >= 0 {
			d.nodes[i].Merge(&o.nodes[j])
		} else {
			d.nodes[i].AddZeros(on)
		}
	}
	for k := range d.pairs {
		p := &d.pairs[k]
		x, y := from[p.i], from[p.j]
		var c stats.Cov
		switch {
		case x >= 0 && y >= 0:
			if oc := oPair[[2]int{x, y}]; oc != nil {
				c = *oc
			} else {
				c = oPair[[2]int{y, x}].Swapped()
			}
		case x >= 0:
			c = stats.CovWithZeroY(o.nodes[x])
		case y >= 0:
			c = stats.CovWithZeroY(o.nodes[y]).Swapped()
		default:
			p.c.AddZeros(on)
			continue
		}
		p.c.Merge(&c)
	}
	d.total.Merge(&o.total)
}

// N is the number of transactions folded in.
func (d *Decomp) N() int64 { return d.total.N() }

// Total is the accumulator of end-to-end transaction latency.
func (d *Decomp) Total() stats.Welford { return d.total }

// Dropped counts paths discarded at the cap, merges included.
func (d *Decomp) Dropped() int64 { return d.dropped }

// Paths calls fn for every path with its accumulator, in creation order.
func (d *Decomp) Paths(fn func(path string, w *stats.Welford)) {
	for i, path := range d.paths {
		fn(path, &d.nodes[i])
	}
}

// Pairs calls fn for every sibling pair, a < b, with its covariance.
func (d *Decomp) Pairs(fn func(a, b string, cov float64)) {
	for k := range d.pairs {
		p := &d.pairs[k]
		a, b := d.paths[p.i], d.paths[p.j]
		if a > b {
			a, b = b, a
		}
		fn(a, b, p.c.Covariance())
	}
}

// RankFactors scores and ranks d's variance factors (eqs. 2–3):
// per-function variance (summed across call sites by last path
// segment), positive sibling-pair terms 2·Cov aggregated per function
// pair, score = specificity · value with specificity = (treeHeight −
// height)², treeHeight the deepest path's depth and heights each path's
// subtree height (nil = all leaves). Sorted by score, ties in path
// order, truncated to k (k <= 0 keeps all). FracOfTotal is relative to
// the total's variance.
func RankFactors(d *Decomp, heights map[string]int, k int) []Factor {
	if d == nil {
		return nil
	}
	treeHeight := 0
	for _, path := range d.paths {
		treeHeight = max(treeHeight, depthOf(path))
	}
	specificity := func(height int) float64 {
		h := float64(treeHeight - height)
		return h * h
	}
	rootVar := d.total.Variance()

	type agg struct {
		value  float64
		height int
	}
	var factors []Factor
	add := func(kind FactorKind, fns []string, a *agg) {
		factors = append(factors, Factor{
			Kind:        kind,
			Functions:   fns,
			Value:       a.value,
			Score:       specificity(a.height) * a.value,
			FracOfTotal: frac(a.value, rootVar),
		})
	}

	order := append([]string(nil), d.paths...)
	sort.Strings(order)
	byFunc := make(map[string]*agg, len(order))
	var funcs []string
	for _, path := range order {
		name := lastSegment(path)
		a := byFunc[name]
		if a == nil {
			a = &agg{}
			byFunc[name] = a
			funcs = append(funcs, name)
		}
		a.value += d.nodes[d.index[path]].Variance()
		a.height = max(a.height, heights[path])
	}
	for _, name := range funcs {
		add(VarianceFactor, []string{name}, byFunc[name])
	}

	type pairVal struct {
		a, b string
		v    float64
	}
	pairs := make([]pairVal, 0, len(d.pairs))
	d.Pairs(func(a, b string, cov float64) { pairs = append(pairs, pairVal{a, b, 2 * cov}) })
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	byPair := make(map[[2]string]*agg, len(pairs))
	var fpairs [][2]string
	for _, p := range pairs {
		fa, fb := lastSegment(p.a), lastSegment(p.b)
		if fa > fb {
			fa, fb = fb, fa
		}
		key := [2]string{fa, fb}
		a := byPair[key]
		if a == nil {
			a = &agg{}
			byPair[key] = a
			fpairs = append(fpairs, key)
		}
		a.value += p.v
		a.height = max(a.height, heights[p.a], heights[p.b])
	}
	for _, key := range fpairs {
		if byPair[key].value > 0 { // negative covariance reduces variance; not a culprit
			add(CovarianceFactor, []string{key[0], key[1]}, byPair[key])
		}
	}

	sort.SliceStable(factors, func(i, j int) bool { return factors[i].Score > factors[j].Score })
	if k > 0 && len(factors) > k {
		factors = factors[:k]
	}
	return factors
}

// depthOf is a path's depth below the transaction root (top-level
// spans are depth 1).
func depthOf(path string) int { return strings.Count(path, "/") + 1 }

func parentOf(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[:i]
	}
	return ""
}
