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
	spans   map[string]float64
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

// InstrumentAll removes any restriction.
func (p *Profiler) InstrumentAll() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.enabled = nil
	p.mu.Unlock()
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
// is full.
func (p *Profiler) collect(totalMs float64, spans map[string]float64) {
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

// --- Per-transaction context ----------------------------------------

// TxnCtx demarcates one transaction (the paper's manual annotation). It
// is single-goroutine; VoltDB-style task-concurrent engines create one
// TxnCtx per transaction id and feed it execution intervals.
type TxnCtx struct {
	p      *Profiler
	start  time.Time
	stack  []frame
	totals map[string]float64 // per-path total ms within this txn
	snap   map[string]bool    // enabled-set snapshot for this txn
}

type frame struct {
	name    string
	path    string
	start   time.Time
	childMs float64
	on      bool // instrumented?
}

// StartTxn opens a transaction context. Returns nil (a valid no-op) on a
// nil profiler.
func (p *Profiler) StartTxn() *TxnCtx {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	snap := p.enabled
	p.mu.Unlock()
	return &TxnCtx{
		p:      p,
		start:  time.Now(),
		totals: make(map[string]float64, 16),
		snap:   snap,
	}
}

func (tc *TxnCtx) on(name string) bool {
	if tc.snap == nil {
		return true
	}
	return tc.snap[name]
}

// Enter opens a span for function name nested under the current span.
// The returned token must be passed to Exit.
func (tc *TxnCtx) Enter(name string) int {
	if tc == nil {
		return 0
	}
	on := tc.on(name)
	path := name
	if n := len(tc.stack); n > 0 {
		// Nest under the nearest *instrumented* ancestor so disabled
		// middle frames collapse, like uninstrumented source.
		for i := n - 1; i >= 0; i-- {
			if tc.stack[i].on {
				path = tc.stack[i].path + "/" + name
				break
			}
		}
	}
	if tc.p.ProbeCost > 0 && on {
		spin(tc.p.ProbeCost)
	}
	tc.stack = append(tc.stack, frame{name: name, path: path, start: time.Now(), on: on})
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
	if !f.on {
		return
	}
	if tc.p.ProbeCost > 0 {
		spin(tc.p.ProbeCost)
	}
	dur := float64(time.Since(f.start)) / float64(time.Millisecond)
	tc.addSpan(f.path, dur, f.childMs)
}

// Record attributes an explicit duration to a leaf function under the
// current span, for costs measured elsewhere (e.g. the buffer pool's
// internal mutex wait).
func (tc *TxnCtx) Record(name string, d time.Duration) {
	if tc == nil || d < 0 {
		return
	}
	if !tc.on(name) {
		return
	}
	path := name
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if tc.stack[i].on {
			path = tc.stack[i].path + "/" + name
			break
		}
	}
	tc.addSpan(path, float64(d)/float64(time.Millisecond), 0)
}

func (tc *TxnCtx) addSpan(path string, durMs, childMs float64) {
	tc.totals[path] += durMs
	// Propagate child time into the nearest instrumented ancestor's
	// child accumulator for body-time computation.
	for i := len(tc.stack) - 1; i >= 0; i-- {
		if tc.stack[i].on {
			tc.stack[i].childMs += durMs
			break
		}
	}
	// A span with instrumented children gets its own time as a
	// "[body]" child, so the children sum to the parent (eq. 1).
	if childMs > 0 {
		tc.totals[path+"/[body]"] += max(durMs-childMs, 0)
	}
}

// End closes the transaction and hands its per-node totals to the
// profiler. Unbalanced spans panic.
func (tc *TxnCtx) End() {
	if tc == nil {
		return
	}
	if len(tc.stack) != 0 {
		panic("tprofiler: End with open spans")
	}
	tc.p.collect(float64(time.Since(tc.start))/float64(time.Millisecond), tc.totals)
}

// AddTrace folds one externally collected transaction into the
// profiler: totalMs is the end-to-end latency and spans maps span
// paths (slash-separated, as produced by Enter/Exit nesting or a flat
// set of leaf names) to their total time within the transaction. The
// live observability layer uses this to replay retained
// slow-transaction traces into the same variance analysis that
// harness-profiled runs feed.
func (p *Profiler) AddTrace(totalMs float64, spans map[string]float64) {
	if p == nil {
		return
	}
	p.collect(totalMs, maps.Clone(spans))
}

func spin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
