package tprofiler

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"vats/internal/stats"
)

// runTxn executes one synthetic transaction: parent "op" with children
// "fast" (constant) and "slow" (alternating), so "slow" is the variance
// culprit.
func runTxn(p *Profiler, i int) {
	tc := Capture(p, false)
	op := tc.Enter("op")
	fast := tc.Enter("fast")
	time.Sleep(200 * time.Microsecond)
	tc.Exit(fast)
	slow := tc.Enter("slow")
	if i%2 == 0 {
		time.Sleep(2 * time.Millisecond)
	} else {
		time.Sleep(100 * time.Microsecond)
	}
	tc.Exit(slow)
	tc.Exit(op)
	tc.End()
}

// feedTxn records runTxn's shape with fixed durations (ms) through
// AddTrace, so a loaded host cannot stretch the sleeps that make "slow"
// the culprit.
func feedTxn(p *Profiler, i int) {
	const fast, body = 0.2, 0.01
	slow := 0.1
	if i%2 == 0 {
		slow = 2
	}
	op := fast + slow + body
	p.AddTrace(op, map[string]float64{"op": op, "op/fast": fast, "op/slow": slow, "op/[body]": body})
}

// node returns path's accumulator in d.
func node(d *Decomp, path string) (stats.Welford, bool) {
	i, ok := d.index[path]
	if !ok {
		return stats.Welford{}, false
	}
	return d.nodes[i], true
}

// lookup folds p's pending traces and returns path's accumulator.
func lookup(p *Profiler, path string) (stats.Welford, bool) {
	d := p.analyzed()
	defer p.foldMu.Unlock()
	return node(d, path)
}

func TestNilProfilerIsNoop(t *testing.T) {
	var p *Profiler
	tc := Capture(p, false)
	tok := tc.Enter("x")
	tc.Record("y", time.Millisecond)
	tc.Exit(tok)
	tc.End()
	if p.TxnCount() != 0 || p.RootVariance() != 0 || p.Tree() != nil || p.TopFactors(3) != nil {
		t.Fatal("nil profiler leaked state")
	}
	p.Instrument("a")
}

func TestVarianceAttribution(t *testing.T) {
	p := New()
	for i := 0; i < 40; i++ {
		feedTxn(p, i)
	}
	if p.TxnCount() != 40 {
		t.Fatalf("txn count = %d", p.TxnCount())
	}
	if p.RootVariance() <= 0 {
		t.Fatal("no root variance measured")
	}
	factors := p.TopFactors(3)
	if len(factors) == 0 {
		t.Fatal("no factors")
	}
	if factors[0].Functions[0] != "slow" {
		t.Fatalf("top factor = %v, want slow", factors[0].Functions)
	}
	// slow alternates 2ms/0.1ms: it should explain most of the variance.
	if factors[0].FracOfTotal < 0.5 {
		t.Errorf("slow explains only %.1f%%", 100*factors[0].FracOfTotal)
	}
}

func TestScorePrefersDeepFunctions(t *testing.T) {
	// Parent "op" has higher variance than child "slow" (it contains
	// it), but specificity must rank "slow" above "op".
	p := New()
	for i := 0; i < 30; i++ {
		runTxn(p, i)
	}
	factors := p.TopFactors(10)
	posOf := func(name string) int {
		for i, f := range factors {
			if f.Kind == VarianceFactor && f.Functions[0] == name {
				return i
			}
		}
		return -1
	}
	ps, po := posOf("slow"), posOf("op")
	if ps == -1 || po == -1 {
		t.Fatalf("missing factors: slow=%d op=%d", ps, po)
	}
	if ps > po {
		t.Errorf("slow ranked %d below op %d despite specificity", ps, po)
	}
}

func TestParentVarianceExceedsChild(t *testing.T) {
	p := New()
	for i := 0; i < 30; i++ {
		feedTxn(p, i)
	}
	tree := p.Tree()
	var op, slow *Node
	var find func(n *Node)
	find = func(n *Node) {
		switch n.Name {
		case "op":
			op = n
		case "slow":
			slow = n
		}
		for _, c := range n.Children {
			find(c)
		}
	}
	find(tree)
	if op == nil || slow == nil {
		t.Fatal("tree missing nodes")
	}
	if op.Variance < slow.Variance*0.9 {
		t.Errorf("parent variance %v << child %v", op.Variance, slow.Variance)
	}
	if slow.Depth <= op.Depth {
		t.Errorf("depths: slow %d, op %d", slow.Depth, op.Depth)
	}
}

func TestVarianceDecompositionHolds(t *testing.T) {
	// Var(parent) ≈ Σ Var(children incl. body) + 2 Σ Cov(siblings).
	p := New()
	for i := 0; i < 60; i++ {
		runTxn(p, i)
	}
	d := p.analyzed()
	defer p.foldMu.Unlock()
	parent, ok := node(d, "op")
	if !ok {
		t.Fatal("no op node")
	}
	sumVar := 0.0
	var childPaths []string
	d.Paths(func(path string, w *stats.Welford) {
		if parentOf(path) == "op" {
			sumVar += w.Variance()
			childPaths = append(childPaths, path)
		}
	})
	sumCov := 0.0
	d.Pairs(func(a, b string, cov float64) {
		if parentOf(a) == "op" && parentOf(b) == "op" {
			sumCov += cov
		}
	})
	lhs := parent.Variance()
	rhs := sumVar + 2*sumCov
	if lhs == 0 {
		t.Fatal("zero parent variance")
	}
	if math.Abs(lhs-rhs)/lhs > 0.15 {
		t.Errorf("decomposition: Var(op)=%v but ΣVar+2ΣCov=%v (children %v)", lhs, rhs, childPaths)
	}
}

func TestInstrumentSubsetCollapsesFrames(t *testing.T) {
	p := New()
	p.Instrument("op") // "slow"/"fast" uninstrumented
	for i := 0; i < 20; i++ {
		runTxn(p, i)
	}
	tree := p.Tree()
	var sawSlow bool
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Name == "slow" {
			sawSlow = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	if sawSlow {
		t.Fatal("uninstrumented function appeared in the tree")
	}
	factors := p.TopFactors(5)
	for _, f := range factors {
		for _, fn := range f.Functions {
			if fn == "slow" || fn == "fast" {
				t.Fatalf("uninstrumented factor: %v", f)
			}
		}
	}
}

func TestInstrumentMiddleFrameCollapse(t *testing.T) {
	// txn -> a(off) -> b(on): b must attach under the root, not under a.
	p := New()
	p.Instrument("b")
	tc := Capture(p, false)
	ta := tc.Enter("a")
	tb := tc.Enter("b")
	time.Sleep(100 * time.Microsecond)
	tc.Exit(tb)
	tc.Exit(ta)
	tc.End()
	_, topLevel := lookup(p, "b")
	_, nested := lookup(p, "a/b")
	if !topLevel || nested {
		t.Fatalf("collapse failed: top=%v nested=%v", topLevel, nested)
	}
}

func TestRecordAttachesLeaf(t *testing.T) {
	p := New()
	tc := Capture(p, false)
	op := tc.Enter("op")
	tc.Record("mutex_wait", 3*time.Millisecond)
	tc.Exit(op)
	tc.End()
	n, ok := lookup(p, "op/mutex_wait")
	if !ok {
		t.Fatal("recorded leaf missing")
	}
	if m := n.Mean(); math.Abs(m-3) > 0.01 {
		t.Fatalf("recorded mean = %v, want 3ms", m)
	}
}

func TestUnbalancedExitPanics(t *testing.T) {
	p := New()
	tc := Capture(p, false)
	tc.Enter("a")
	tc.Enter("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tc.Exit(1) // wrong token
}

func TestEndWithOpenSpanPanics(t *testing.T) {
	p := New()
	tc := Capture(p, false)
	tc.Enter("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tc.End()
}

func TestConcurrentTransactions(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tc := Capture(p, false)
				tok := tc.Enter("work")
				tc.Exit(tok)
				tc.End()
			}
		}()
	}
	wg.Wait()
	if p.TxnCount() != 160 {
		t.Fatalf("count = %d", p.TxnCount())
	}
}

// TestFoldWhileCollecting crosses several fold boundaries from many
// goroutines while a reader folds concurrently: no trace may be lost or
// folded twice (run under -race this is the fold-locking test).
func TestFoldWhileCollecting(t *testing.T) {
	p := New()
	const workers, each = 6, foldBatch / 2
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.TopFactors(2)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p.AddTrace(2, map[string]float64{"a": 1, "b": 1})
			}
		}()
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	if n := p.TxnCount(); n != workers*each {
		t.Fatalf("TxnCount = %d, want %d", n, workers*each)
	}
	if m := p.RootMean(); m != 2 {
		t.Fatalf("RootMean = %v, want 2", m)
	}
}

func TestBodyTimeComputed(t *testing.T) {
	// Parent with sleeping body and one child: parent body node exists.
	p := New()
	tc := Capture(p, false)
	op := tc.Enter("op")
	c := tc.Enter("child")
	time.Sleep(200 * time.Microsecond)
	tc.Exit(c)
	time.Sleep(500 * time.Microsecond) // body time
	tc.Exit(op)
	tc.End()
	body, ok := lookup(p, "op/[body]")
	if !ok {
		t.Fatal("no body node")
	}
	if body.Mean() < 0.3 {
		t.Errorf("body mean = %v ms, want ~0.5", body.Mean())
	}
}

func TestReportRendering(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		runTxn(p, i)
	}
	r := p.Report()
	if !strings.Contains(r, "txn") || !strings.Contains(r, "slow") {
		t.Fatalf("report missing nodes:\n%s", r)
	}
	if f := p.TopFactors(1); len(f) == 1 && f[0].String() == "" {
		t.Error("empty factor string")
	}
}

func TestProbeCostAddsOverhead(t *testing.T) {
	fast := New()
	heavy := New()
	heavy.ProbeCost = 200 * time.Microsecond

	measure := func(p *Profiler) time.Duration {
		start := time.Now()
		tc := Capture(p, false)
		for i := 0; i < 10; i++ {
			tok := tc.Enter("f")
			tc.Exit(tok)
		}
		tc.End()
		return time.Since(start)
	}
	tf := measure(fast)
	th := measure(heavy)
	if th < tf+3*time.Millisecond {
		t.Errorf("heavy probes (%v) not slower than light (%v)", th, tf)
	}
}

func TestModelRunCounts(t *testing.T) {
	m := Model{Fanout: 6, Depth: 8, Budget: 50, TopK: 3, Culprits: 2}
	naive := m.NaiveRuns()
	guided := m.GuidedRuns(1)
	if guided <= 0 {
		t.Fatal("guided found nothing")
	}
	if naive < 1000*float64(guided) {
		t.Errorf("naive (%.3g) should dwarf guided (%d)", naive, guided)
	}
	// Guided ≈ depth × ceil(TopK·Fanout/Budget): small.
	if guided > 4*m.Depth {
		t.Errorf("guided = %d runs, too many for depth %d", guided, m.Depth)
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	m := Model{Fanout: 4, Depth: 6, Budget: 20, TopK: 2, Culprits: 1}
	if m.GuidedRuns(7) != m.GuidedRuns(7) {
		t.Fatal("GuidedRuns not deterministic")
	}
}

func TestModelDegenerateFanout(t *testing.T) {
	m := Model{Fanout: 1, Depth: 5, Budget: 1, TopK: 1, Culprits: 1}
	if m.NaiveRuns() <= 0 {
		t.Fatal("degenerate naive runs")
	}
	if m.GuidedRuns(3) <= 0 {
		t.Fatal("degenerate guided runs")
	}
}

// TestCaptureTimeline checks the capture's timeline: the first
// timelineCap timed spans in begin order with their paths, later ones
// only counted, zero-duration records kept out of it.
func TestCaptureTimeline(t *testing.T) {
	tc := Capture(nil, true)
	op := tc.Enter("op")
	tc.Record("io", 0) // in the tree, not on the timeline
	for i := 0; i < timelineCap+10; i++ {
		tc.Record("io", time.Microsecond)
	}
	tc.Exit(op)
	tc.End()
	if got, want := tc.SpanCount(), timelineCap+11; got != want {
		t.Fatalf("SpanCount = %d, want %d", got, want)
	}
	marks := tc.Timeline()
	if len(marks) != timelineCap {
		t.Fatalf("timeline holds %d spans, want %d", len(marks), timelineCap)
	}
	if marks[0].Path != "op" || marks[0].Dur <= 0 || marks[1].Path != "op/io" || marks[1].Dur != time.Microsecond {
		t.Fatalf("timeline starts %+v, %+v", marks[0], marks[1])
	}
	for i := 1; i < len(marks); i++ {
		if marks[i].At < marks[i-1].At-time.Microsecond {
			t.Fatalf("mark %d begins at %v, before mark %d at %v", i, marks[i].At, i-1, marks[i-1].At)
		}
	}
}

// TestCaptureTotals checks the per-path totals past the capture's
// inline table and its hashed index: every path once, its time summed.
func TestCaptureTotals(t *testing.T) {
	tc := Capture(nil, true)
	root := tc.Enter("root")
	const kids = hashedSpans + 40
	for round := 0; round < 2; round++ {
		for i := 0; i < kids; i++ {
			tc.Record(fmt.Sprintf("child%03d", i), time.Duration(i+1)*time.Millisecond)
		}
	}
	tc.Exit(root)
	tc.End()
	got := map[string]float64{}
	for _, s := range tc.Spans() {
		if _, dup := got[s.Path]; dup {
			t.Fatalf("path %q appears twice", s.Path)
		}
		got[s.Path] = s.Ms
	}
	if len(got) != kids+2 { // + root and root/[body]
		t.Fatalf("%d paths, want %d", len(got), kids+2)
	}
	for i := 0; i < kids; i++ {
		if v := got[fmt.Sprintf("root/child%03d", i)]; v != float64(2*(i+1)) {
			t.Fatalf("root/child%03d = %v ms, want %d", i, v, 2*(i+1))
		}
	}
}

// TestCaptureInternConcurrent enters the same fresh names from many
// goroutines at once: each path is interned once, so every capture
// holds the same nodes.
func TestCaptureInternConcurrent(t *testing.T) {
	prefix := fmt.Sprintf("intern%d.", time.Now().UnixNano())
	got := make([][]Span, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tc := Capture(nil, true)
			for i := 0; i < 20; i++ {
				tok := tc.Enter(fmt.Sprintf("%s%02d", prefix, i))
				tc.Record("leaf", 0)
				tc.Exit(tok)
			}
			tc.End()
			got[g] = tc.Spans()
		}(g)
	}
	wg.Wait()
	for g := range got {
		if len(got[g]) != 40 {
			t.Fatalf("capture %d has %d paths, want 40", g, len(got[g]))
		}
		for i, s := range got[g] {
			if s.n != got[0][i].n {
				t.Fatalf("capture %d path %q is a different node than capture 0's %q", g, s.Path, got[0][i].Path)
			}
		}
	}
}
