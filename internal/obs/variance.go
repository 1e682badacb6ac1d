package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/stats"
	"vats/internal/tprofiler"
)

// VarianceEngine is the always-on variance-attribution engine: every
// committed, sampled transaction's factor totals (lock.wait, buf.io,
// log.flush, ...) feed streaming Welford/covariance accumulators, so
// the system continuously knows which factors the latency variance
// decomposes into — the same decomposition tprofiler computes, over a
// rolling horizon instead of a whole run.
//
// The state is a tprofiler.Decomp per shard: eq. 1 with X_f the per-txn
// time in factor f (0 when absent), Var(Σ X_f) = Σ Var(X_f) +
// 2 Σ Cov(X_f, X_g), kept exactly (late factors are backfilled with
// zeros, shard merges apply the present/only-one/neither rules), so a
// snapshot equals the batch computation over the same transactions up
// to floating-point rounding.
//
// Accumulators are sharded like the metrics registry (shard index from
// a stack-address hash, merged on read) and rotate through bounded
// time windows, so memory stays O(shards · windows · factors²) and a
// snapshot reflects the recent horizon, not process lifetime.
type VarianceEngine struct {
	on  enabledFlag
	cfg VarianceConfig

	mu   sync.Mutex // guards rotation and the past ring
	cur  atomic.Pointer[varWindow]
	past []*varWindow // closed windows, oldest first

	// onRotate, when set, receives the closed window's merged stats
	// after each rotation — the SLO watchdog's feed.
	onRotate func(closed *VarianceSnapshot)
}

// VarianceConfig sizes the engine. The zero value gets defaults.
type VarianceConfig struct {
	// Window is the rotation period (default 2s). Windows rotate lazily
	// on Record/Snapshot, so an idle engine does no background work.
	Window time.Duration
	// Retain is how many closed windows merge into snapshots alongside
	// the live one (default 4, i.e. a ~10s horizon at the default
	// window).
	Retain int
}

func (c VarianceConfig) withDefaults() VarianceConfig {
	if c.Window <= 0 {
		c.Window = 2 * time.Second
	}
	if c.Retain <= 0 {
		c.Retain = 4
	}
	return c
}

// maxFactors caps distinct factor names per shard and per snapshot;
// overflow is counted (DroppedFactors), not attributed.
const maxFactors = 16

// varWindow is one rotation period's accumulators, sharded to keep the
// commit path off a global mutex.
type varWindow struct {
	start  time.Time
	shards []*varShard
}

// latBuckets mirrors the registry histograms' log₂ layout (bounds
// latLo·2^i) so window quantiles line up with /metrics.
const (
	latBuckets = defaultHistBuckets
	latLo      = 0.001 // ms — ~1µs first bucket
)

type varShard struct {
	mu     sync.Mutex
	d      *tprofiler.Decomp
	lat    [latBuckets]int64
	latMax float64
}

func newVarWindow(start time.Time) *varWindow {
	w := &varWindow{start: start, shards: make([]*varShard, numShards)}
	for i := range w.shards {
		w.shards[i] = &varShard{d: tprofiler.NewDecomp(maxFactors)}
	}
	return w
}

// NewVarianceEngine returns an enabled engine.
func NewVarianceEngine(cfg VarianceConfig) *VarianceEngine {
	e := &VarianceEngine{cfg: cfg.withDefaults()}
	e.on.Store(true)
	return e
}

// SetEnabled flips collection; a disabled Record costs one atomic load.
func (e *VarianceEngine) SetEnabled(on bool) {
	if e == nil {
		return
	}
	e.on.Store(on)
}

// Enabled reports whether observations are being collected.
func (e *VarianceEngine) Enabled() bool { return e != nil && e.on.Load() }

// Record folds one committed transaction into the live window: its
// end-to-end latency (ms) and its per-factor totals (ms, flat factor
// names — what the tracer folds a capture into). Factors absent from a
// transaction count as zero, keeping the decomposition consistent.
// A nil engine or disabled engine no-ops.
func (e *VarianceEngine) Record(totalMs float64, spans []tprofiler.Span) {
	if e == nil || !e.on.Load() {
		return
	}
	now := time.Now()
	w := e.cur.Load()
	if w == nil || now.Sub(w.start) >= e.cfg.Window {
		w = e.rotate(now)
	}
	s := w.shards[shardIdx(len(w.shards))]
	s.mu.Lock()
	s.d.Add(totalMs, spans)
	s.lat[logBucket(latLo, latBuckets, totalMs)]++
	s.latMax = max(s.latMax, totalMs)
	s.mu.Unlock()
}

// rotate closes the live window and opens a fresh one, feeding the
// closed window's stats to the watchdog hook. Lazy: called from Record
// and Snapshot when the live window's period has elapsed.
func (e *VarianceEngine) rotate(now time.Time) *varWindow {
	e.mu.Lock()
	w := e.cur.Load()
	if w != nil && now.Sub(w.start) < e.cfg.Window {
		e.mu.Unlock()
		return w
	}
	nw := newVarWindow(now)
	e.cur.Store(nw)
	if w != nil {
		e.past = append(e.past, w)
		if len(e.past) > e.cfg.Retain {
			e.past = e.past[len(e.past)-e.cfg.Retain:]
		}
	}
	hook := e.onRotate
	e.mu.Unlock()
	if w != nil && hook != nil {
		// Merge outside the rotation lock; a straggler still writing
		// through a stale window pointer is harmless (shard mutexes keep
		// it race-free; its txn lands in the closed window's stats).
		if snap := e.mergeWindows([]*varWindow{w}); snap.N > 0 {
			hook(snap)
		}
	}
	return nw
}

// FactorStat is one factor's contribution in a snapshot.
type FactorStat struct {
	Name     string  `json:"name"`
	MeanMs   float64 `json:"mean_ms"`
	Variance float64 `json:"variance_ms2"`
	// Share is Variance / Var(txn) — the "percentage of overall
	// variance" column of the paper's tables.
	Share float64 `json:"share"`
}

// CovStat is one sibling-pair covariance term: Value is 2·Cov(A, B),
// the pair's contribution to Var(txn) per eq. 1.
type CovStat struct {
	A     string  `json:"a"`
	B     string  `json:"b"`
	Value float64 `json:"value_ms2"`
	Share float64 `json:"share"`
}

// VarianceSnapshot is a merged point-in-time view over the snapshot
// horizon (live window + retained closed windows).
type VarianceSnapshot struct {
	Start     time.Time     `json:"window_start"`
	WindowDur time.Duration `json:"-"`
	Windows   int           `json:"windows_merged"`
	N         int64         `json:"txns"`
	MeanMs    float64       `json:"mean_ms"`
	Variance  float64       `json:"variance_ms2"`
	P50       float64       `json:"p50_ms"`
	P95       float64       `json:"p95_ms"`
	P99       float64       `json:"p99_ms"`
	Max       float64       `json:"max_ms"`
	// Factors are sorted by variance descending; Covs by |Value|.
	Factors []FactorStat `json:"factors"`
	Covs    []CovStat    `json:"covariances,omitempty"`
	// ExplainedShare is (Σ factor variance + Σ 2cov) / Var(txn): how
	// much of the observed variance the instrumented factors account
	// for. The remainder is un-instrumented body time.
	ExplainedShare float64 `json:"explained_share"`
	// DroppedFactors counts factor names discarded at the cap of 16
	// over the snapshot horizon; nonzero flags incomplete attribution.
	DroppedFactors int64 `json:"dropped_factors,omitempty"`

	// d is the merged decomposition TopFactors ranks.
	d *tprofiler.Decomp
}

// Snapshot merges the live window and the retained closed windows.
func (e *VarianceEngine) Snapshot() *VarianceSnapshot {
	if e == nil {
		return &VarianceSnapshot{Factors: []FactorStat{}}
	}
	now := time.Now()
	if w := e.cur.Load(); w != nil && now.Sub(w.start) >= e.cfg.Window {
		e.rotate(now)
	}
	e.mu.Lock()
	windows := append([]*varWindow(nil), e.past...)
	if w := e.cur.Load(); w != nil {
		windows = append(windows, w)
	}
	e.mu.Unlock()
	return e.mergeWindows(windows)
}

// mergeWindows merges the windows' shard decompositions (exactly; see
// tprofiler.Decomp.Merge) and reads the snapshot out of the result.
func (e *VarianceEngine) mergeWindows(windows []*varWindow) *VarianceSnapshot {
	snap := &VarianceSnapshot{
		WindowDur: e.cfg.Window,
		Windows:   len(windows),
		Factors:   []FactorStat{},
		d:         tprofiler.NewDecomp(maxFactors),
	}
	if len(windows) > 0 {
		snap.Start = windows[0].start
	}
	hs := HistSnapshot{Bounds: make([]float64, latBuckets), Buckets: make([]int64, latBuckets)}
	for _, w := range windows {
		for _, s := range w.shards {
			s.mu.Lock()
			snap.d.Merge(s.d)
			for i, c := range s.lat {
				hs.Buckets[i] += c
			}
			hs.Max = max(hs.Max, s.latMax)
			s.mu.Unlock()
		}
	}
	total := snap.d.Total()
	snap.N, snap.MeanMs, snap.Variance = total.N(), total.Mean(), total.Variance()
	snap.Max, snap.DroppedFactors = hs.Max, snap.d.Dropped()
	if snap.N == 0 {
		return snap
	}

	// Quantiles from the merged log₂ buckets, via the histogram
	// snapshot machinery so estimates match /metrics exactly.
	hs.N = snap.N
	for i := range hs.Bounds {
		hs.Bounds[i] = math.Ldexp(latLo, i)
	}
	snap.P50, snap.P95, snap.P99 = hs.Quantile(0.50), hs.Quantile(0.95), hs.Quantile(0.99)

	explained := 0.0
	snap.d.Paths(func(name string, w *stats.Welford) {
		v := w.Variance()
		explained += v
		snap.Factors = append(snap.Factors, FactorStat{Name: name, MeanMs: w.Mean(), Variance: v, Share: safeFrac(v, snap.Variance)})
	})
	snap.d.Pairs(func(a, b string, cov float64) {
		v := 2 * cov
		explained += v
		if v != 0 {
			snap.Covs = append(snap.Covs, CovStat{A: a, B: b, Value: v, Share: safeFrac(v, snap.Variance)})
		}
	})
	snap.ExplainedShare = safeFrac(explained, snap.Variance)
	sort.Slice(snap.Factors, func(i, j int) bool {
		fi, fj := snap.Factors[i], snap.Factors[j]
		return fi.Variance > fj.Variance || fi.Variance == fj.Variance && fi.Name < fj.Name
	})
	sort.Slice(snap.Covs, func(i, j int) bool {
		ci, cj := snap.Covs[i], snap.Covs[j]
		if vi, vj := math.Abs(ci.Value), math.Abs(cj.Value); vi != vj {
			return vi > vj
		}
		return ci.A < cj.A || ci.A == cj.A && ci.B < cj.B
	})
	return snap
}

// TopFactors ranks the snapshot's factors with the same scoring the
// offline profiler uses (tprofiler.RankFactors): flat leaves at height
// 0 under the transaction root, positive pair covariances included.
func (s *VarianceSnapshot) TopFactors(k int) []tprofiler.Factor {
	if s == nil {
		return nil
	}
	return tprofiler.RankFactors(s.d, nil, k)
}

// Share returns the named factor's variance share, or 0.
func (s *VarianceSnapshot) Share(name string) float64 {
	for _, f := range s.Factors {
		if f.Name == name {
			return f.Share
		}
	}
	return 0
}

// WritePrometheus renders the snapshot horizon as gauges: per-factor
// variance shares, the decomposition totals and the window quantiles.
func (e *VarianceEngine) WritePrometheus(w io.Writer) {
	if e == nil {
		return
	}
	s := e.Snapshot()
	fmt.Fprintf(w, "# TYPE txn_variance_share gauge\n")
	for _, f := range s.Factors {
		fmt.Fprintf(w, "txn_variance_share{factor=%q} %g\n", f.Name, f.Share)
	}
	fmt.Fprintf(w, "# TYPE txn_window_variance_ms2 gauge\ntxn_window_variance_ms2 %g\n", s.Variance)
	fmt.Fprintf(w, "# TYPE txn_window_mean_ms gauge\ntxn_window_mean_ms %g\n", s.MeanMs)
	fmt.Fprintf(w, "# TYPE txn_window_txns gauge\ntxn_window_txns %d\n", s.N)
	fmt.Fprintf(w, "# TYPE txn_window_explained_share gauge\ntxn_window_explained_share %g\n", s.ExplainedShare)
	fmt.Fprintf(w, "# TYPE txn_window_p50_ms gauge\ntxn_window_p50_ms %g\n", s.P50)
	fmt.Fprintf(w, "# TYPE txn_window_p95_ms gauge\ntxn_window_p95_ms %g\n", s.P95)
	fmt.Fprintf(w, "# TYPE txn_window_p99_ms gauge\ntxn_window_p99_ms %g\n", s.P99)
	if s.DroppedFactors > 0 {
		fmt.Fprintf(w, "# TYPE txn_variance_dropped_factors gauge\ntxn_variance_dropped_factors %d\n", s.DroppedFactors)
	}
}

func safeFrac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
