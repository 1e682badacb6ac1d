package tprofiler_test

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vats/internal/tprofiler"
)

// oracleTrace is one transaction as the batch oracle sees it.
type oracleTrace struct {
	total float64
	spans map[string]float64
}

// nestedTraces produces a seeded stream of nested transactions: body
// leaves, depth-3 paths, a function name ("d") called from two sites,
// nodes that first appear a third of the way in, and nodes absent from
// some transactions. Parents are the sums of their children.
func nestedTraces(seed int64, n int) []oracleTrace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]oracleTrace, 0, n)
	for i := 0; i < n; i++ {
		s := map[string]float64{}
		c := rng.ExpFloat64() * 2
		s["a/b/c"] = c
		s["a/b/[body]"] = 0.3 + 0.1*rng.Float64()
		b := c + s["a/b/[body]"]
		if i > n/3 {
			s["a/b/late"] = rng.Float64()
			b += s["a/b/late"]
		}
		s["a/b"] = b
		s["a/[body]"] = 0.5 * rng.Float64()
		a := b + s["a/[body]"]
		if i%5 != 0 {
			s["a/d"] = rng.Float64()
			a += s["a/d"]
		}
		s["a"] = a
		s["q/d"] = 0.4*c + 0.2*rng.Float64() // co-varies with a/b/c
		s["q/[body]"] = 0.1 + 0.1*rng.Float64()
		s["q"] = s["q/d"] + s["q/[body]"]
		total := a + s["q"] + 0.2*rng.Float64()
		if i > n/3 {
			s["late"] = rng.ExpFloat64()
			total += s["late"]
		}
		out = append(out, oracleTrace{total: total, spans: s})
	}
	return out
}

// oracleNode is the two-pass oracle's view of one call-path node.
type oracleNode struct {
	mean, variance float64
	depth, height  int
}

// batchOracle recomputes eqs. 1–3 from scratch over the whole stream:
// two passes per statistic (mean, then centred sums), absent nodes
// counted as 0, sibling pairs sharing a parent, heights by a prefix
// scan, and the paper's scoring. It shares no code with the package.
type batchOracle struct {
	rootMean, rootVar float64
	nodes             map[string]oracleNode
	factors           []tprofiler.Factor
}

func parent(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[:i]
	}
	return ""
}

func last(path string) string { return path[strings.LastIndex(path, "/")+1:] }

func newBatchOracle(traces []oracleTrace) *batchOracle {
	n := float64(len(traces))
	meanOf := func(get func(oracleTrace) float64) float64 {
		s := 0.0
		for _, tr := range traces {
			s += get(tr)
		}
		return s / n
	}
	covOf := func(x, y func(oracleTrace) float64) float64 {
		mx, my := meanOf(x), meanOf(y)
		s := 0.0
		for _, tr := range traces {
			s += (x(tr) - mx) * (y(tr) - my)
		}
		return s / n
	}
	span := func(path string) func(oracleTrace) float64 {
		return func(tr oracleTrace) float64 { return tr.spans[path] }
	}
	total := func(tr oracleTrace) float64 { return tr.total }

	o := &batchOracle{rootMean: meanOf(total), rootVar: covOf(total, total), nodes: map[string]oracleNode{}}
	set := map[string]bool{}
	for _, tr := range traces {
		for path := range tr.spans {
			set[path] = true
		}
	}
	var paths []string
	for path := range set {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	treeHeight := 0
	for _, path := range paths {
		depth := strings.Count(path, "/") + 1
		height := 0
		for _, other := range paths {
			if strings.HasPrefix(other, path+"/") {
				if h := strings.Count(other, "/") + 1 - depth; h > height {
					height = h
				}
			}
		}
		if depth > treeHeight {
			treeHeight = depth
		}
		o.nodes[path] = oracleNode{mean: meanOf(span(path)), variance: covOf(span(path), span(path)), depth: depth, height: height}
	}

	type agg struct {
		value  float64
		height int
	}
	spec := func(h int) float64 { return float64((treeHeight - h) * (treeHeight - h)) }
	varAgg, covAgg := map[string]*agg{}, map[[2]string]*agg{}
	for _, path := range paths {
		a := varAgg[last(path)]
		if a == nil {
			a = &agg{}
			varAgg[last(path)] = a
		}
		a.value += o.nodes[path].variance
		a.height = max(a.height, o.nodes[path].height)
	}
	for i, pa := range paths {
		for _, pb := range paths[i+1:] {
			if parent(pa) != parent(pb) {
				continue
			}
			fa, fb := last(pa), last(pb)
			if fa > fb {
				fa, fb = fb, fa
			}
			a := covAgg[[2]string{fa, fb}]
			if a == nil {
				a = &agg{}
				covAgg[[2]string{fa, fb}] = a
			}
			a.value += 2 * covOf(span(pa), span(pb))
			a.height = max(a.height, o.nodes[pa].height, o.nodes[pb].height)
		}
	}
	for name, a := range varAgg {
		o.factors = append(o.factors, tprofiler.Factor{Kind: tprofiler.VarianceFactor, Functions: []string{name},
			Value: a.value, Score: spec(a.height) * a.value, FracOfTotal: a.value / o.rootVar})
	}
	for key, a := range covAgg {
		if a.value <= 0 {
			continue
		}
		o.factors = append(o.factors, tprofiler.Factor{Kind: tprofiler.CovarianceFactor, Functions: []string{key[0], key[1]},
			Value: a.value, Score: spec(a.height) * a.value, FracOfTotal: a.value / o.rootVar})
	}
	sort.Slice(o.factors, func(i, j int) bool { return o.factors[i].Score > o.factors[j].Score })
	return o
}

func near(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

// TestProfilerMatchesBatchOracle streams seeded nested traces through
// AddTrace and checks every number the profiler reports — the variance
// tree, the root moments and the full ranked factor list — against a
// from-scratch two-pass computation of eqs. 1–3.
func TestProfilerMatchesBatchOracle(t *testing.T) {
	const tol = 1e-9
	traces := nestedTraces(11, 10000)
	p := tprofiler.New()
	for _, tr := range traces {
		p.AddTrace(tr.total, tr.spans)
	}
	o := newBatchOracle(traces)

	if got := p.TxnCount(); got != int64(len(traces)) {
		t.Fatalf("TxnCount = %d, want %d", got, len(traces))
	}
	if !near(p.RootMean(), o.rootMean, tol) || !near(p.RootVariance(), o.rootVar, tol) {
		t.Fatalf("root: mean %.12g var %.12g, oracle %.12g %.12g", p.RootMean(), p.RootVariance(), o.rootMean, o.rootVar)
	}

	root := p.Tree()
	if root.Path != "txn" || root.Depth != 0 || !near(root.Mean, o.rootMean, tol) || !near(root.Variance, o.rootVar, tol) {
		t.Fatalf("tree root = %+v", *root)
	}
	seen := 0
	var walk func(n *tprofiler.Node)
	walk = func(n *tprofiler.Node) {
		for _, c := range n.Children {
			want, ok := o.nodes[c.Path]
			if !ok {
				t.Fatalf("tree has node %q the oracle does not", c.Path)
			}
			if parent(c.Path) != strings.TrimPrefix(n.Path, "txn") {
				t.Errorf("%q hangs under %q", c.Path, n.Path)
			}
			if c.Depth != want.depth || c.Height != want.height || c.Name != last(c.Path) ||
				!near(c.Mean, want.mean, tol) || !near(c.Variance, want.variance, tol) {
				t.Errorf("node %q = depth %d height %d mean %.12g var %.12g; oracle %+v",
					c.Path, c.Depth, c.Height, c.Mean, c.Variance, want)
			}
			seen++
			walk(c)
		}
	}
	walk(root)
	if seen != len(o.nodes) {
		t.Fatalf("tree has %d nodes, oracle %d", seen, len(o.nodes))
	}

	got := p.TopFactors(0)
	if len(got) != len(o.factors) {
		t.Fatalf("TopFactors(0) has %d factors, oracle %d\ngot:  %v\nwant: %v", len(got), len(o.factors), got, o.factors)
	}
	for i, want := range o.factors {
		f := got[i]
		if f.Kind != want.Kind || strings.Join(f.Functions, "+") != strings.Join(want.Functions, "+") ||
			!near(f.Value, want.Value, tol) || !near(f.Score, want.Score, tol) || !near(f.FracOfTotal, want.FracOfTotal, tol) {
			t.Errorf("rank %d: got %+v, oracle %+v", i, f, want)
		}
	}
}

// TestProfilerHeapBounded checks that the profiler's memory does not
// grow with the number of transactions it has seen: collection keeps a
// bounded batch of traces, not every trace.
func TestProfilerHeapBounded(t *testing.T) {
	const calls = 200_000
	const limit = 8 << 20
	rng := rand.New(rand.NewSource(5))
	names := []string{"lock.wait", "buf.io", "log.flush", "op", "op/a", "op/b", "op/[body]", "net.queue_wait"}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapInuse
	p := tprofiler.New()
	for i := 0; i < calls; i++ {
		spans := make(map[string]float64, len(names))
		total := 0.0
		for _, n := range names {
			v := rng.Float64()
			spans[n] = v
			total += v
		}
		p.AddTrace(total, spans)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grew := int64(ms.HeapInuse) - int64(before)
	if p.TxnCount() != calls {
		t.Fatalf("TxnCount = %d, want %d", p.TxnCount(), calls)
	}
	if grew > limit {
		t.Fatalf("%d AddTrace calls grew the heap by %.1f MiB, limit %d MiB", calls, float64(grew)/(1<<20), limit>>20)
	}
}
