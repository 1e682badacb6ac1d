// Package tprofiler reproduces TProfiler (§3 of the paper): a profiler
// that, given transaction demarcation and per-function latency spans,
// attributes overall transaction latency *variance* to individual
// functions in the call graph.
//
// The analysis follows the paper exactly:
//
//   - Per transaction, the time spent in each call-tree node is summed
//     across invocations (a node is a call path, aggregated per function
//     name across call sites when scoring).
//   - Across transactions, each node gets a variance, and sibling pairs
//     get covariances, so that a parent's variance decomposes as
//     Var(ΣXi) = Σ Var(Xi) + 2 Σ Cov(Xi, Xj)            (eq. 1)
//     where the children include the parent's own "body" time.
//   - Factors (a node's variance, or a sibling pair's covariance) are
//     ranked by score(φ) = specificity(φ) · Σ V(φi), with
//     specificity(φ) = (height(callgraph) − height(φ))²   (eqs. 2, 3)
//     so that deep, specific functions outrank their enclosing parents
//     even though a parent's variance always exceeds its children's.
//
// Iterative refinement (instrumenting only a subset of functions per run
// to bound overhead) is modelled by the Instrument set: spans for
// functions outside the set cost nothing and collapse into their
// parent's body time, exactly like uninstrumented source.
package tprofiler

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Profiler collects variance trees over many transactions. All methods
// are safe for concurrent use; a nil *Profiler is a valid no-op sink so
// instrumented code needs no conditionals.
type Profiler struct {
	mu      sync.Mutex      // guards enabled and pending
	enabled map[string]bool // nil = instrument everything

	// Collection is deliberately cheap: End and AddTrace append the
	// transaction's totals to pending. The variance analysis stays off
	// the transaction path, as in the paper's "online trace collection,
	// offline variance analysis" flow: pending traces fold into d when
	// results are read, or once foldBatch have piled up, and are then
	// dropped, so memory does not grow with the number of transactions.
	pending []trace

	// foldMu guards d. It is taken before p.mu is released, so batches
	// fold in the order they were swapped out and a read sees every
	// trace collected before it; the fold itself runs without p.mu, so
	// committers keep appending while it runs.
	foldMu sync.Mutex
	d      *Decomp

	// ProbeCost adds busy-wait per probe to emulate heavyweight
	// instrumentation (the DTrace baseline in fig. 5 left). Zero for
	// TProfiler itself.
	ProbeCost time.Duration
}

// foldBatch is how many collected traces wait before being folded.
const foldBatch = 4096

type trace struct {
	totalMs float64
	spans   []Span
}

// Span is one call-tree path's total time within a transaction (ms).
// Paths are slash-separated from the transaction root.
type Span struct {
	Path string
	Ms   float64
	n    *pathNode // the interned path, in a capture's own spans
}

// New returns an empty profiler instrumenting every span.
func New() *Profiler {
	return &Profiler{d: NewDecomp(0)}
}

// Instrument restricts collection to the named functions (and the
// transaction root). Other spans become part of their parent's body.
func (p *Profiler) Instrument(names ...string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.enabled = make(map[string]bool, len(names))
	for _, n := range names {
		p.enabled[n] = true
	}
}

// TxnCount returns the number of completed transactions observed.
func (p *Profiler) TxnCount() int64 {
	if p == nil {
		return 0
	}
	d := p.analyzed()
	defer p.foldMu.Unlock()
	return d.N()
}

// collect appends one transaction's trace, folding the batch once it
// is full. spans is kept, not copied: the caller hands it over.
func (p *Profiler) collect(totalMs float64, spans []Span) {
	p.mu.Lock()
	p.pending = append(p.pending, trace{totalMs, spans})
	if len(p.pending) < foldBatch {
		p.mu.Unlock()
		return
	}
	p.fold()
	p.foldMu.Unlock()
}

// analyzed folds every pending trace and returns the decomposition. It
// returns holding p.foldMu; the caller unlocks it.
func (p *Profiler) analyzed() *Decomp {
	p.mu.Lock()
	p.fold()
	return p.d
}

// fold swaps the pending batch out and folds it into d. The caller
// holds p.mu; fold releases it and returns holding p.foldMu.
func (p *Profiler) fold() {
	batch := p.pending
	p.pending = nil
	p.foldMu.Lock()
	p.mu.Unlock()
	for _, tr := range batch {
		p.d.Add(tr.totalMs, tr.spans)
	}
}

// --- Per-transaction capture ----------------------------------------

// TxnCtx is the capture of one transaction (the paper's manual
// demarcation) and the engine's only one: its call tree's per-path
// totals, which a profiler folds into its decomposition, and the begin
// offsets of its first timelineCap spans, which obs's tracer shows for
// retained slow transactions. It is single-goroutine while the
// transaction runs, read-only once End returns, and one allocation
// unless the transaction nests deeper than stackCap or touches more
// than spanCap distinct paths. VoltDB-style task-concurrent engines
// create one TxnCtx per transaction id and feed it execution intervals.
type TxnCtx struct {
	// ID and Tag label the transaction in the slow ring. Begin is set by
	// Capture, Latency by End and Aborted by the tracer.
	ID      uint64
	Tag     string
	Begin   time.Time
	Latency time.Duration
	Aborted bool

	p      *Profiler
	traced bool
	snap   map[string]bool // enabled-set snapshot for this txn
	stack  []frame
	spans  []Span // per-path totals, in first-seen order
	marked int    // timed spans, on the timeline or past it
	// slots finds the first hashedSpans paths' totals by node id (open
	// addressing; entry = index+1, 0 = empty); later ones are scanned.
	slots [2 * hashedSpans]uint8

	stackBuf [stackCap]frame
	spanBuf  [spanCap]Span
	tl       [timelineCap]mark // last: pointer-free, so the GC stops before it
}

const (
	stackCap    = 8
	spanCap     = 32
	timelineCap = 64
	hashedSpans = 128
)

type frame struct {
	n       *pathNode // nil when uninstrumented
	at      time.Duration
	childMs float64
	span    int32 // index in spans
	mark    int32 // timeline slot, or -1
}

// mark is one timeline entry; span indexes spans.
type mark struct {
	at, dur time.Duration
	span    int32
}

// Mark is one span on a capture's timeline: At is its begin offset from
// the transaction's start.
type Mark struct {
	Path    string
	At, Dur time.Duration
}

// pathNode is one interned call-tree path, built the first time its
// name is entered under its parent, so a capture never concatenates
// strings. The table is process-wide (a capture need not have a
// profiler; a node depends only on its parent and name) and grows only
// with the distinct paths instrumented.
type pathNode struct {
	path string
	id   uint32
	kids atomic.Pointer[map[string]*pathNode]
}

var (
	root     pathNode   // the transaction root
	internMu sync.Mutex // serializes node creation and nodeIDs
	nodeIDs  uint32
)

// child returns the interned node for name under n.
func (n *pathNode) child(name string) *pathNode {
	if m := n.kids.Load(); m != nil {
		if c, ok := (*m)[name]; ok {
			return c
		}
	}
	internMu.Lock()
	defer internMu.Unlock()
	m := map[string]*pathNode{}
	if old := n.kids.Load(); old != nil {
		if c, ok := (*old)[name]; ok {
			return c
		}
		m = maps.Clone(*old)
	}
	path := name
	if n != &root {
		path = n.path + "/" + name
	}
	nodeIDs++
	m[name] = &pathNode{path: path, id: nodeIDs}
	n.kids.Store(&m)
	return m[name]
}

// Capture opens a transaction capture for profiler p (nil = none) and,
// when traced, for obs's tracer. It returns nil, a valid no-op, when
// neither wants the transaction, so a nil profiler costs instrumented
// code no conditionals.
func Capture(p *Profiler, traced bool) *TxnCtx {
	if p == nil && !traced {
		return nil
	}
	tc := &TxnCtx{p: p, traced: traced, Begin: time.Now()}
	if p != nil {
		p.mu.Lock()
		tc.snap = p.enabled
		p.mu.Unlock()
	}
	tc.stack, tc.spans = tc.stackBuf[:0], tc.spanBuf[:0]
	return tc
}

// parent is the node new spans nest under: the nearest instrumented
// open span, so disabled middle frames collapse like uninstrumented
// source.
func (tc *TxnCtx) parent() *pathNode {
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if n := tc.stack[i].n; n != nil {
			return n
		}
	}
	return &root
}

// open returns name's node under the current span, or nil when name is
// not instrumented.
func (tc *TxnCtx) open(name string) *pathNode {
	if tc.snap != nil && !tc.snap[name] {
		return nil
	}
	return tc.parent().child(name)
}

func (tc *TxnCtx) probe() {
	if tc.p != nil && tc.p.ProbeCost > 0 {
		spin(tc.p.ProbeCost)
	}
}

// mark puts span i on the timeline, returning its slot or -1 once the
// timeline is full.
func (tc *TxnCtx) mark(i int, at, dur time.Duration) int32 {
	tc.marked++
	if tc.marked > timelineCap {
		return -1
	}
	tc.tl[tc.marked-1] = mark{at: at, dur: dur, span: int32(i)}
	return int32(tc.marked - 1)
}

// Enter opens a span for function name nested under the current span.
// The returned token must be passed to Exit.
func (tc *TxnCtx) Enter(name string) int {
	if tc == nil {
		return 0
	}
	f := frame{n: tc.open(name), mark: -1}
	if f.n != nil {
		f.span = int32(tc.total(f.n))
		tc.probe()
		f.at = time.Since(tc.Begin)
		f.mark = tc.mark(int(f.span), f.at, 0)
	}
	tc.stack = append(tc.stack, f)
	return len(tc.stack)
}

// Exit closes the span opened by the matching Enter.
func (tc *TxnCtx) Exit(token int) {
	if tc == nil {
		return
	}
	if token != len(tc.stack) || token == 0 {
		panic(fmt.Sprintf("tprofiler: unbalanced Exit (token %d, depth %d)", token, len(tc.stack)))
	}
	f := tc.stack[len(tc.stack)-1]
	tc.stack = tc.stack[:len(tc.stack)-1]
	if f.n == nil {
		return
	}
	tc.probe()
	dur := time.Since(tc.Begin) - f.at
	if f.mark >= 0 {
		tc.tl[f.mark].dur = dur
	}
	tc.add(int(f.span), ms(dur), f.childMs)
}

// Record attributes an explicit duration to a leaf function under the
// current span, for costs measured elsewhere (e.g. the buffer pool's
// internal mutex wait). A zero duration puts the leaf in the tree but
// not on the timeline.
func (tc *TxnCtx) Record(name string, d time.Duration) {
	if tc == nil || d < 0 {
		return
	}
	if n := tc.open(name); n != nil {
		i := tc.total(n)
		if d > 0 {
			tc.mark(i, time.Since(tc.Begin)-d, d)
		}
		tc.add(i, ms(d), 0)
	}
}

// add adds a closed span's time to spans[i] and to the nearest
// instrumented ancestor's child time. A span with instrumented
// children also gets its own time as a "[body]" child, so the children
// sum to the parent (eq. 1).
func (tc *TxnCtx) add(i int, durMs, childMs float64) {
	tc.spans[i].Ms += durMs
	for k := len(tc.stack) - 1; k >= 0; k-- {
		if tc.stack[k].n != nil {
			tc.stack[k].childMs += durMs
			break
		}
	}
	if childMs > 0 {
		body := tc.total(tc.spans[i].n.child("[body]"))
		tc.spans[body].Ms += max(durMs-childMs, 0)
	}
}

// total returns n's index in spans, adding it if new.
func (tc *TxnCtx) total(n *pathNode) int {
	const mask = len(tc.slots) - 1
	h := int(n.id) & mask
	for ; tc.slots[h] != 0; h = (h + 1) & mask {
		if i := int(tc.slots[h]) - 1; tc.spans[i].n == n {
			return i
		}
	}
	for i := hashedSpans; i < len(tc.spans); i++ {
		if tc.spans[i].n == n {
			return i
		}
	}
	i := len(tc.spans)
	if i < hashedSpans {
		tc.slots[h] = uint8(i + 1)
	}
	tc.spans = append(tc.spans, Span{Path: n.path, n: n})
	return i
}

// End closes the transaction, sets Latency and hands the per-path
// totals to the profiler, if any. Unbalanced spans panic.
func (tc *TxnCtx) End() {
	if tc == nil {
		return
	}
	if len(tc.stack) != 0 {
		panic("tprofiler: End with open spans")
	}
	tc.Latency = time.Since(tc.Begin)
	if tc.p != nil {
		tc.p.collect(ms(tc.Latency), tc.spans)
	}
}

// Traced reports whether obs's tracer sampled this transaction.
func (tc *TxnCtx) Traced() bool { return tc != nil && tc.traced }

// Spans returns the per-path totals; callers must not modify them.
func (tc *TxnCtx) Spans() []Span { return tc.spans }

// SpanCount is how many timed spans the transaction opened or
// recorded, including those past the timeline.
func (tc *TxnCtx) SpanCount() int { return tc.marked }

// Timeline returns the first timelineCap timed spans in begin order.
func (tc *TxnCtx) Timeline() []Mark {
	out := make([]Mark, min(tc.marked, timelineCap))
	for i, m := range tc.tl[:len(out)] {
		out[i] = Mark{Path: tc.spans[m.span].Path, At: m.at, Dur: m.dur}
	}
	return out
}

// AddTrace folds one externally collected transaction into the
// profiler: totalMs is the end-to-end latency and spans maps span
// paths (slash-separated, or flat leaf names) to their total time
// within the transaction.
func (p *Profiler) AddTrace(totalMs float64, spans map[string]float64) {
	if p == nil {
		return
	}
	s := make([]Span, 0, len(spans))
	for path, v := range spans {
		s = append(s, Span{Path: path, Ms: v})
	}
	p.collect(totalMs, s)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
