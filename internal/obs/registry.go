package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"vats/internal/stats"
)

// Label is one name=value pair attached to a metric (e.g. the lock
// scheduler policy). Labels distinguish registered series; the same
// name with different labels is a different series.
type Label struct {
	Key   string
	Value string
}

// numShards is the per-metric shard count: GOMAXPROCS rounded up to a
// power of two, capped at 64. Power of two so shardIdx can mask.
var numShards = func() int {
	n := runtime.GOMAXPROCS(0)
	p := 1
	for p < n && p < 64 {
		p <<= 1
	}
	return p
}()

// shardIdx spreads callers across shards without a goroutine id: the
// address of a stack variable differs between goroutine stacks, so
// hashing it approximates a per-thread index. Collisions only cost
// contention, never correctness — every update lands in exactly one
// shard and reads merge all shards.
func shardIdx(n int) int {
	if n == 1 {
		return 0
	}
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b))) * 0x9E3779B97F4A7C15
	return int((h >> 32) & uint64(n-1))
}

// counterShard is padded to a cache line so shards on different cores
// do not false-share.
type counterShard struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. A nil
// *Counter is a valid no-op; a disabled counter costs one atomic load.
type Counter struct {
	on     *enabledFlag
	shards []counterShard
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.shards[shardIdx(len(c.shards))].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the merged count across shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// Gauge is an instantaneous value (e.g. active transactions, queue
// depth). Gauges are a single atomic — they are read-modify-write
// targets, not hot-path accumulation points.
type Gauge struct {
	on *enabledFlag
	v  atomic.Int64
}

// Add moves the gauge by n (use negative n to decrement).
func (g *Gauge) Add(n int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Add(n)
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histShard holds one shard's bucket counts plus a Welford accumulator
// for exact mean/variance. Buckets are atomics; the Welford update is
// guarded by a shard-local mutex (uncontended in the common case since
// callers spread across shards).
type histShard struct {
	buckets []atomic.Int64
	mu      sync.Mutex
	w       stats.Welford
	max     float64
	_       [40]byte
}

// Histogram is a sharded fixed-bucket histogram with log-scaled bucket
// bounds lo·2^i and an exact Welford-backed mean/variance. A nil
// *Histogram is a valid no-op.
type Histogram struct {
	on     *enabledFlag
	lo     float64 // upper bound of bucket 0
	nb     int
	shards []*histShard
}

const defaultHistBuckets = 40

// newHistogram builds a histogram whose bucket i has upper bound
// lo·2^i, with nb buckets (the last is the overflow bucket).
func newHistogram(on *enabledFlag, lo float64, nb int) *Histogram {
	if lo <= 0 {
		lo = 1
	}
	if nb <= 1 {
		nb = defaultHistBuckets
	}
	h := &Histogram{on: on, lo: lo, nb: nb}
	h.shards = make([]*histShard, numShards)
	for i := range h.shards {
		h.shards[i] = &histShard{buckets: make([]atomic.Int64, nb)}
	}
	return h
}

// Enabled reports whether observations are being collected; use it to
// skip timing work (time.Now pairs) feeding a disabled histogram.
func (h *Histogram) Enabled() bool { return h != nil && h.on.Load() }

func (h *Histogram) bucketOf(v float64) int { return logBucket(h.lo, h.nb, v) }

// logBucket returns the smallest i with v <= lo·2^i, clamped to the
// last of nb buckets: the bucket layout of every histogram here.
func logBucket(lo float64, nb int, v float64) int {
	if v <= lo || math.IsNaN(v) {
		return 0
	}
	i := math.Ilogb(v / lo) // floor(log2(v/lo))
	if i < 0 {
		return 0
	}
	if math.Ldexp(lo, i) < v {
		i++
	}
	return min(i, nb-1)
}

// Observe records one value in the histogram's unit.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() {
		return
	}
	s := h.shards[shardIdx(len(h.shards))]
	s.buckets[h.bucketOf(v)].Add(1)
	s.mu.Lock()
	s.w.Add(v)
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds (the repository's
// latency unit).
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	// Bounds[i] is the inclusive upper bound of bucket i; the last
	// bucket also absorbs overflow.
	Bounds  []float64
	Buckets []int64
	N       int64
	Mean    float64
	// Variance is the population variance (exact, Welford-merged).
	Variance float64
	Max      float64
}

// Snapshot merges all shards: bucket counts are summed and the Welford
// accumulators combined with the parallel-merge formula.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	snap := HistSnapshot{
		Bounds:  make([]float64, h.nb),
		Buckets: make([]int64, h.nb),
	}
	for i := range snap.Bounds {
		snap.Bounds[i] = math.Ldexp(h.lo, i)
	}
	var merged stats.Welford
	for _, s := range h.shards {
		for i := range s.buckets {
			snap.Buckets[i] += s.buckets[i].Load()
		}
		s.mu.Lock()
		w := s.w
		if s.max > snap.Max {
			snap.Max = s.max
		}
		s.mu.Unlock()
		merged.Merge(&w)
	}
	snap.N = merged.N()
	snap.Mean = merged.Mean()
	snap.Variance = merged.Variance()
	return snap
}

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// linear interpolation inside the selected bucket; the estimate is
// clamped to the observed maximum.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	rank := q * float64(s.N)
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[i]
			frac := (rank - float64(prev)) / float64(c)
			est := lo + (hi-lo)*frac
			if s.Max > 0 && est > s.Max {
				est = s.Max
			}
			return est
		}
	}
	return s.Max
}

// Summary condenses the snapshot into the repository's standard
// latency summary: exact N/mean/variance, bucket-estimated
// percentiles.
func (s HistSnapshot) Summary() stats.Summary {
	sd := math.Sqrt(s.Variance)
	cov := 0.0
	if s.Mean != 0 {
		cov = sd / s.Mean
	}
	return stats.Summary{
		N:        int(s.N),
		Mean:     s.Mean,
		Variance: s.Variance,
		StdDev:   sd,
		CoV:      cov,
		P50:      s.Quantile(0.50),
		P95:      s.Quantile(0.95),
		P99:      s.Quantile(0.99),
		Max:      s.Max,
	}
}

// metric is one registered series.
type metric struct {
	name   string
	labels []Label
	key    string // name + rendered labels
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a named collection of metrics. Registration
// (Counter/Gauge/Histogram) is get-or-create and safe for concurrent
// use; handles are meant to be looked up once at construction time and
// then used lock-free on hot paths.
type Registry struct {
	enabled enabledFlag
	mu      sync.Mutex
	byKey   map[string]*metric
	order   []*metric
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{byKey: make(map[string]*metric)}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips collection. Disabling does not discard existing
// values; it only makes subsequent updates no-ops.
func (r *Registry) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
}

// Enabled reports whether updates are collected.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

func (r *Registry) lookup(name string, labels []Label) *metric {
	key := seriesKey(name, labels)
	m := r.byKey[key]
	if m == nil {
		m = &metric{name: name, labels: append([]Label(nil), labels...), key: key}
		r.byKey[key] = m
		r.order = append(r.order, m)
	}
	return m
}

// Counter registers (or retrieves) a counter series.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels)
	if m.c == nil {
		if m.g != nil || m.h != nil {
			panic("obs: series " + m.key + " already registered with another type")
		}
		m.c = &Counter{on: &r.enabled, shards: make([]counterShard, numShards)}
	}
	return m.c
}

// Gauge registers (or retrieves) a gauge series.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels)
	if m.g == nil {
		if m.c != nil || m.h != nil {
			panic("obs: series " + m.key + " already registered with another type")
		}
		m.g = &Gauge{on: &r.enabled}
	}
	return m.g
}

// Histogram registers (or retrieves) a latency histogram in
// milliseconds: log-scaled buckets from ~1µs (0.001ms) up.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramScaled(name, 0.001, defaultHistBuckets, labels...)
}

// HistogramScaled registers a histogram with bucket 0 upper bound lo
// (in the caller's unit) and nb log₂-spaced buckets.
func (r *Registry) HistogramScaled(name string, lo float64, nb int, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.lookup(name, labels)
	if m.h == nil {
		if m.c != nil || m.g != nil {
			panic("obs: series " + m.key + " already registered with another type")
		}
		m.h = newHistogram(&r.enabled, lo, nb)
	}
	return m.h
}

func promLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatBound(b float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", b), "0"), ".")
}

// WritePrometheus renders every series in the Prometheus text
// exposition format. Histograms emit cumulative _bucket series (only
// buckets that change the cumulative count, plus +Inf), _sum-style
// mean/variance gauges and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	series := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	sort.Slice(series, func(i, j int) bool { return series[i].key < series[j].key })
	for _, m := range series {
		switch {
		case m.c != nil:
			fmt.Fprintf(w, "# TYPE %s counter\n%s%s %d\n", m.name, m.name, promLabels(m.labels), m.c.Value())
		case m.g != nil:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s%s %d\n", m.name, m.name, promLabels(m.labels), m.g.Value())
		case m.h != nil:
			s := m.h.Snapshot()
			fmt.Fprintf(w, "# TYPE %s histogram\n", m.name)
			var cum int64
			for i, c := range s.Buckets {
				if c == 0 {
					continue
				}
				cum += c
				fmt.Fprintf(w, "%s_bucket%s %d\n", m.name,
					promLabels(m.labels, Label{"le", formatBound(s.Bounds[i])}), cum)
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, promLabels(m.labels, Label{"le", "+Inf"}), s.N)
			fmt.Fprintf(w, "%s_sum%s %g\n", m.name, promLabels(m.labels), s.Mean*float64(s.N))
			fmt.Fprintf(w, "%s_count%s %d\n", m.name, promLabels(m.labels), s.N)
			fmt.Fprintf(w, "%s_variance%s %g\n", m.name, promLabels(m.labels), s.Variance)
			// Bucket-estimated quantiles as plain gauges so dashboards
			// can read p50/p95/p99 without a histogram_quantile() step.
			fmt.Fprintf(w, "%s_p50%s %g\n", m.name, promLabels(m.labels), s.Quantile(0.50))
			fmt.Fprintf(w, "%s_p95%s %g\n", m.name, promLabels(m.labels), s.Quantile(0.95))
			fmt.Fprintf(w, "%s_p99%s %g\n", m.name, promLabels(m.labels), s.Quantile(0.99))
		}
	}
}

// Summaries returns a live stats.Summary per histogram series, keyed
// by the series key — the /debug/stats payload.
func (r *Registry) Summaries() map[string]stats.Summary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	series := append([]*metric(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]stats.Summary)
	for _, m := range series {
		if m.h != nil {
			out[m.key] = m.h.Snapshot().Summary()
		}
	}
	return out
}
