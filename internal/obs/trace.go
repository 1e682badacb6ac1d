package obs

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vats/internal/tprofiler"
)

// Canonical factor names: the flat variance factors the live engine
// attributes. The offline profiler sees the same times as leaves of the
// transaction's call tree (Txn's span table); factorOf maps one to the
// other.
const (
	FactorLockWait  = "lock.wait"
	FactorBufIO     = "buf.io"
	FactorBufLRU    = "buf.pool_mutex"
	FactorLogFlush  = "log.flush"
	FactorQueueWait = "part.queue_wait"
	Factor2PC       = "part.xpart_2pc"
	// FactorNetQueueWait is admission-queue wait at the network front
	// door — the paper's VoltDB finding (99.9% of variance was queueing
	// delay) as a first-class live variance factor.
	FactorNetQueueWait = "net.queue_wait"
	// FactorNetShed is time lost to admission-control shedding before
	// the work was finally admitted.
	FactorNetShed = "net.shed"
)

// factorOf is the one factor table: it maps a capture's leaf span name
// to the variance factor that leaf's time feeds. Leaves not named here
// (statement bodies, row operations, WAL appends) are no factor. The
// variance engine and /debug/txns's spans_ms both fold through it.
var factorOf = map[string]string{
	"lock.wait.read":   FactorLockWait,
	"lock.wait.write":  FactorLockWait,
	FactorBufIO:        FactorBufIO,
	FactorBufLRU:       FactorBufLRU,
	FactorLogFlush:     FactorLogFlush,
	FactorQueueWait:    FactorQueueWait,
	Factor2PC:          Factor2PC,
	FactorNetQueueWait: FactorNetQueueWait,
	FactorNetShed:      FactorNetShed,
}

// numFactors is the number of distinct factors factorOf names.
const numFactors = 8

// factorSpans appends tc's nonzero factor totals to out, one entry per
// factor (a factor absent from the result counts as 0).
func factorSpans(tc *tprofiler.TxnCtx, out []tprofiler.Span) []tprofiler.Span {
	for _, s := range tc.Spans() {
		if s.Ms <= 0 {
			continue
		}
		f, ok := factorOf[s.Path[strings.LastIndexByte(s.Path, '/')+1:]]
		if !ok {
			continue
		}
		i := 0
		for i < len(out) && out[i].Path != f {
			i++
		}
		if i == len(out) {
			out = append(out, tprofiler.Span{Path: f})
		}
		out[i].Ms += s.Ms
	}
	return out
}

// factorMap is factorSpans as a map, for the sink and JSON.
func factorMap(tc *tprofiler.TxnCtx) map[string]float64 {
	var buf [numFactors]tprofiler.Span
	spans := factorSpans(tc, buf[:0])
	m := make(map[string]float64, len(spans))
	for _, s := range spans {
		m[s.Path] = s.Ms
	}
	return m
}

// DefaultSlowCap is the default size of the slow-transaction ring.
const DefaultSlowCap = 32

// Tracer opens the per-transaction capture when it samples a
// transaction, feeds each sampled, committed capture to the variance
// engine, and retains the worst (highest-latency) completed captures in
// a ring bounded both by count and by resident bytes, so the p99+ tail
// is always inspectable live without unbounded memory — a huge-tag
// transaction cannot balloon the ring past its byte budget.
type Tracer struct {
	enabled atomic.Bool

	// variance, when set (by NewWith), receives every committed
	// capture's factor totals; sampler, when set, gates capture in
	// Begin. sink is a test hook mirroring what variance sees.
	variance *VarianceEngine
	sampler  *Sampler
	sink     func(totalMs float64, spans map[string]float64)

	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64
	slow     []*tprofiler.TxnCtx // slowest first
}

// DefaultMaxTraceBytes is the default slow-ring byte budget. The
// default ring (32 captures of ~3 KiB) sits well under it; the budget
// guards against large caps or large tags.
const DefaultMaxTraceBytes = 256 << 10

// captureBytes is a capture's fixed footprint: its inline stack, span
// table and timeline.
const captureBytes = int64(unsafe.Sizeof(tprofiler.TxnCtx{}))

// footprint estimates a retained capture's resident bytes: the fixed
// struct plus the tag string.
func footprint(tc *tprofiler.TxnCtx) int64 { return captureBytes + int64(len(tc.Tag)) }

// NewTracerSized returns an enabled tracer bounded by both slowCap
// captures (DefaultSlowCap if <= 0) and maxBytes resident capture bytes
// (DefaultMaxTraceBytes if <= 0).
func NewTracerSized(slowCap int, maxBytes int64) *Tracer {
	if slowCap <= 0 {
		slowCap = DefaultSlowCap
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxTraceBytes
	}
	t := &Tracer{cap: slowCap, maxBytes: maxBytes}
	t.enabled.Store(true)
	return t
}

// SetSink installs a mirror receiving every committed, sampled
// transaction's (latency, factor spans) exactly as the variance engine
// does — the differential tests use it to drive an offline profiler
// from the identical stream.
func (t *Tracer) SetSink(fn func(totalMs float64, spans map[string]float64)) {
	if t == nil {
		return
	}
	t.sink = fn
}

// SetEnabled flips trace collection.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	t.enabled.Store(on)
}

// Begin opens transaction id's capture for profiler p (nil = none) and,
// when tracing is on and the sampling controller admits the
// transaction, for this tracer. It returns nil, a valid no-op capture,
// when neither wants it. Skipped transactions still count in the
// sampler's rate estimate — only span capture is elided.
func (t *Tracer) Begin(p *tprofiler.Profiler, id uint64) *tprofiler.TxnCtx {
	traced := t != nil && t.enabled.Load() && t.sampler.Admit()
	tc := tprofiler.Capture(p, traced)
	if tc != nil {
		tc.ID = id
	}
	return tc
}

// End closes the capture, handing it to its profiler, if any. If the
// tracer sampled it, End feeds its factor totals to the variance engine
// (committed transactions only — aborts have a different latency
// population) and offers it to the slow ring, which keeps the slowest
// captures within its count and byte bounds. End on a nil tracer still
// closes the capture.
func (t *Tracer) End(tc *tprofiler.TxnCtx, aborted bool) {
	tc.End()
	if t == nil || !tc.Traced() {
		return
	}
	tc.Aborted = aborted
	t.sampler.NoteTraceEvents(tc.SpanCount())
	if !aborted && (t.variance.Enabled() || t.sink != nil) {
		totalMs := float64(tc.Latency) / float64(time.Millisecond)
		var buf [numFactors]tprofiler.Span
		t.variance.Record(totalMs, factorSpans(tc, buf[:0]))
		if t.sink != nil {
			t.sink(totalMs, factorMap(tc))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slow) == t.cap && tc.Latency <= t.slow[len(t.slow)-1].Latency {
		return
	}
	i := 0
	for i < len(t.slow) && t.slow[i].Latency >= tc.Latency {
		i++
	}
	t.slow = slices.Insert(t.slow, i, tc)
	t.bytes += footprint(tc)
	// Count and byte bounds: evict the fastest retained capture, but
	// never empty the ring.
	for len(t.slow) > 1 && (len(t.slow) > t.cap || t.bytes > t.maxBytes) {
		t.bytes -= footprint(t.slow[len(t.slow)-1])
		t.slow = t.slow[:len(t.slow)-1]
	}
}

// Slow returns the retained captures, slowest first.
func (t *Tracer) Slow() []*tprofiler.TxnCtx {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.slow)
}

// Reset discards retained captures.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = t.slow[:0]
	t.bytes = 0
	t.mu.Unlock()
}
