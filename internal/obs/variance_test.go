package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"vats/internal/tprofiler"
)

// synthTrace is one synthetic committed transaction for the
// differential tests: a latency plus factor spans, with factors
// appearing and disappearing across the stream.
type synthTrace struct {
	totalMs float64
	spans   map[string]float64
}

// spanList is m as the span list Record takes.
func spanList(m map[string]float64) []tprofiler.Span {
	out := make([]tprofiler.Span, 0, len(m))
	for path, v := range m {
		out = append(out, tprofiler.Span{Path: path, Ms: v})
	}
	return out
}

// genTraces produces a seeded trace stream in which lock.wait dominates
// the variance, log.flush is steady, and buf.io only appears after the
// first third — exercising the late-factor backfill path.
func genTraces(seed int64, n int) []synthTrace {
	rng := rand.New(rand.NewSource(seed))
	out := make([]synthTrace, 0, n)
	for i := 0; i < n; i++ {
		spans := map[string]float64{}
		wait := rng.ExpFloat64() * 4 // heavy-tailed
		spans[FactorLockWait] = wait
		flush := 1 + 0.1*rng.Float64()
		spans[FactorLogFlush] = flush
		body := 0.5 + 0.2*rng.Float64()
		total := wait + flush + body
		if i > n/3 {
			io := rng.Float64() * 2
			spans[FactorBufIO] = io
			total += io
		}
		if i%7 == 0 {
			delete(spans, FactorLockWait) // factor absent some txns
			total -= wait
		}
		out = append(out, synthTrace{totalMs: total, spans: spans})
	}
	return out
}

// TestVarianceOnlineMatchesOfflineProfiler feeds the streaming engine
// one trace at a time and checks it against a two-pass recomputation
// and against tprofiler.Profiler over the identical stream — total
// variance, per-factor ranking, and variance shares — to within
// floating-point tolerance, because the streaming math is exact, not
// approximate.
func TestVarianceOnlineMatchesOfflineProfiler(t *testing.T) {
	traces := genTraces(42, 900)
	e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
	p := tprofiler.New()
	for _, tr := range traces {
		e.Record(tr.totalMs, spanList(tr.spans))
		p.AddTrace(tr.totalMs, tr.spans)
	}
	compareOnlineOffline(t, e, p, traces, 1e-9)
}

// TestVarianceMergeAcrossGoroutines repeats the differential check with
// the stream spread over many goroutines (hence shards): the
// shard-merge rules (pair present / only-A / only-B / neither) must
// reproduce the batch result no matter how the stream is partitioned.
func TestVarianceMergeAcrossGoroutines(t *testing.T) {
	traces := genTraces(7, 600)
	e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
	p := tprofiler.New()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(traces); i += workers {
				e.Record(traces[i].totalMs, spanList(traces[i].spans))
			}
		}(w)
	}
	wg.Wait()
	for _, tr := range traces {
		p.AddTrace(tr.totalMs, tr.spans)
	}
	// Looser tolerance: merge order differs from insertion order, so
	// rounding differs in the last few bits.
	compareOnlineOffline(t, e, p, traces, 1e-6)
}

// compareOnlineOffline checks the engine's snapshot against a flat
// two-pass computation of eq. 1 over the same traces (so the streaming
// code is not only compared with itself), then checks that its ranking
// agrees with the offline profiler's.
func compareOnlineOffline(t *testing.T, e *VarianceEngine, p *tprofiler.Profiler, traces []synthTrace, tol float64) {
	t.Helper()
	snap := e.Snapshot()
	if snap.N != int64(len(traces)) {
		t.Fatalf("snapshot N = %d, want %d", snap.N, len(traces))
	}
	checkFlatOracle(t, snap, traces, tol)
	if !within(snap.Variance, p.RootVariance(), tol) {
		t.Fatalf("total variance: online %.12g offline %.12g", snap.Variance, p.RootVariance())
	}
	if !within(snap.MeanMs, p.RootMean(), tol) {
		t.Fatalf("mean: online %.12g offline %.12g", snap.MeanMs, p.RootMean())
	}
	on := snap.TopFactors(8)
	off := p.TopFactors(8)
	if len(on) != len(off) {
		t.Fatalf("factor counts differ: online %d offline %d\non: %+v\noff: %+v", len(on), len(off), on, off)
	}
	for i := range on {
		if strings.Join(on[i].Functions, "+") != strings.Join(off[i].Functions, "+") {
			t.Fatalf("rank %d: online %v offline %v", i, on[i].Functions, off[i].Functions)
		}
		if !within(on[i].Value, off[i].Value, tol) || !within(on[i].FracOfTotal, off[i].FracOfTotal, tol) {
			t.Fatalf("rank %d (%v): value online %.12g offline %.12g, frac online %.12g offline %.12g",
				i, on[i].Functions, on[i].Value, off[i].Value, on[i].FracOfTotal, off[i].FracOfTotal)
		}
	}
}

// checkFlatOracle recomputes the snapshot's numbers in two passes over
// the traces: means first, then centred sums, with absent factors
// counted as 0 and every pair of factor names a sibling pair.
func checkFlatOracle(t *testing.T, snap *VarianceSnapshot, traces []synthTrace, tol float64) {
	t.Helper()
	n := float64(len(traces))
	get := func(name string) func(synthTrace) float64 {
		if name == "" {
			return func(tr synthTrace) float64 { return tr.totalMs }
		}
		return func(tr synthTrace) float64 { return tr.spans[name] }
	}
	mean := func(x func(synthTrace) float64) float64 {
		s := 0.0
		for _, tr := range traces {
			s += x(tr)
		}
		return s / n
	}
	cov := func(x, y func(synthTrace) float64) float64 {
		mx, my := mean(x), mean(y)
		s := 0.0
		for _, tr := range traces {
			s += (x(tr) - mx) * (y(tr) - my)
		}
		return s / n
	}
	rootVar := cov(get(""), get(""))
	if !within(snap.MeanMs, mean(get("")), tol) || !within(snap.Variance, rootVar, tol) {
		t.Fatalf("total: mean %.12g var %.12g, oracle %.12g %.12g", snap.MeanMs, snap.Variance, mean(get("")), rootVar)
	}
	set := map[string]bool{}
	for _, tr := range traces {
		for name := range tr.spans {
			set[name] = true
		}
	}
	var names []string
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(snap.Factors) != len(names) {
		t.Fatalf("snapshot has %d factors, oracle %d", len(snap.Factors), len(names))
	}
	explained := 0.0
	for _, f := range snap.Factors {
		v := cov(get(f.Name), get(f.Name))
		explained += v
		if !within(f.MeanMs, mean(get(f.Name)), tol) || !within(f.Variance, v, tol) || !within(f.Share, v/rootVar, tol) {
			t.Fatalf("factor %s: mean %.12g var %.12g share %.12g; oracle %.12g %.12g %.12g",
				f.Name, f.MeanMs, f.Variance, f.Share, mean(get(f.Name)), v, v/rootVar)
		}
	}
	covs := map[[2]string]float64{}
	for _, c := range snap.Covs {
		covs[[2]string{c.A, c.B}] = c.Value
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			v := 2 * cov(get(a), get(b))
			explained += v
			if !within(covs[[2]string{a, b}], v, tol) {
				t.Fatalf("2cov(%s, %s) = %.12g, oracle %.12g", a, b, covs[[2]string{a, b}], v)
			}
		}
	}
	if !within(snap.ExplainedShare, explained/rootVar, tol) {
		t.Fatalf("explained share %.12g, oracle %.12g", snap.ExplainedShare, explained/rootVar)
	}
}

func within(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(scale, 1)
}

// TestVarianceExplainedShare checks the decomposition identity: when
// the spans sum exactly to the total latency, factor variances plus
// pair covariances must reconstruct the total variance (explained
// share 1).
func TestVarianceExplainedShare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
	for i := 0; i < 400; i++ {
		a := rng.ExpFloat64()
		b := rng.Float64() * 2
		e.Record(a+b, spanList(map[string]float64{"a": a, "b": b}))
	}
	snap := e.Snapshot()
	if !within(snap.ExplainedShare, 1, 1e-9) {
		t.Fatalf("explained share = %.12g, want 1 (spans sum to total)", snap.ExplainedShare)
	}
}

// TestVarianceWindowRotation checks that closed windows feed the
// rotation hook and retention is bounded.
func TestVarianceWindowRotation(t *testing.T) {
	e := NewVarianceEngine(VarianceConfig{Window: 10 * time.Millisecond, Retain: 2})
	var mu sync.Mutex
	var closed []*VarianceSnapshot
	e.onRotate = func(s *VarianceSnapshot) {
		mu.Lock()
		closed = append(closed, s)
		mu.Unlock()
	}
	deadline := time.Now().Add(80 * time.Millisecond)
	for time.Now().Before(deadline) {
		e.Record(1+rand.Float64(), spanList(map[string]float64{"a": 0.5}))
		time.Sleep(time.Millisecond)
	}
	e.Record(1, spanList(map[string]float64{"a": 0.5})) // ensure a final rotation candidate
	mu.Lock()
	n := len(closed)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no closed windows observed after several window periods")
	}
	snap := e.Snapshot()
	if snap.Windows > 3 { // Retain(2) + live
		t.Fatalf("snapshot merged %d windows, want <= 3 (retain 2 + live)", snap.Windows)
	}
}

// TestVarianceRotationRace hammers Record/Snapshot/rotate concurrently
// with a tiny window; run under -race this is the rotation-safety test.
func TestVarianceRotationRace(t *testing.T) {
	e := NewVarianceEngine(VarianceConfig{Window: time.Millisecond, Retain: 2})
	var wg sync.WaitGroup
	stop := time.Now().Add(50 * time.Millisecond)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(stop) {
				e.Record(rng.ExpFloat64(), spanList(map[string]float64{
					FactorLockWait: rng.Float64(),
					FactorLogFlush: rng.Float64(),
				}))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(stop) {
			s := e.Snapshot()
			if s.N < 0 {
				t.Error("negative N")
				return
			}
			_ = s.TopFactors(4)
		}
	}()
	wg.Wait()
}

// TestVarianceMaxFactorsCap checks overflow factors are counted, not
// silently dropped, and that the cap holds for the merged snapshot,
// not just per shard (transactions land on different shards).
func TestVarianceMaxFactorsCap(t *testing.T) {
	e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans := map[string]float64{}
			for i := 0; i <= maxFactors; i++ {
				spans[fmt.Sprintf("f%02d", i)] = float64(i)
			}
			e.Record(1, spanList(spans))
		}()
	}
	wg.Wait()
	snap := e.Snapshot()
	if snap.DroppedFactors == 0 {
		t.Fatal("over-cap factors must increment DroppedFactors")
	}
	if len(snap.Factors) > maxFactors {
		t.Fatalf("snapshot has %d factors, cap was %d", len(snap.Factors), maxFactors)
	}
}

// TestVarianceDisabledAndNil checks the always-compiled-in contract.
func TestVarianceDisabledAndNil(t *testing.T) {
	var nilE *VarianceEngine
	nilE.Record(1, spanList(map[string]float64{"a": 1})) // must not panic
	nilE.SetEnabled(true)
	if nilE.Enabled() {
		t.Fatal("nil engine is never enabled")
	}
	if s := nilE.Snapshot(); s == nil || s.N != 0 {
		t.Fatal("nil engine snapshot must be empty, not nil")
	}
	e := NewVarianceEngine(VarianceConfig{})
	e.SetEnabled(false)
	e.Record(1, spanList(map[string]float64{"a": 1}))
	if s := e.Snapshot(); s.N != 0 {
		t.Fatal("disabled engine must not record")
	}
}

// --- Watchdog ---

func snapFor(n int64, meanMs, variance, p99 float64, factors ...FactorStat) *VarianceSnapshot {
	return &VarianceSnapshot{
		Start: time.Unix(0, 0), N: n, MeanMs: meanMs, Variance: variance,
		P99: p99, Factors: factors,
	}
}

func TestWatchdogP99AndCoV(t *testing.T) {
	w := NewWatchdog(SLOConfig{P99TargetMs: 10, CoVTarget: 1}, 0)
	w.Observe(snapFor(100, 2, 100, 50)) // p99 5x target, CoV = 10/2 = 5
	as := w.Anomalies(0)
	if len(as) != 2 {
		t.Fatalf("got %d anomalies, want 2 (p99 + CoV): %+v", len(as), as)
	}
	// Severity-ranked within the window: p99 severity 5, CoV severity 5
	// — both present, kinds distinct.
	kinds := map[string]bool{}
	for _, a := range as {
		kinds[a.Kind] = true
		if a.Severity < 1 {
			t.Fatalf("anomaly severity %v < 1: %+v", a.Severity, a)
		}
	}
	if !kinds[AnomalyP99] || !kinds[AnomalyCoV] {
		t.Fatalf("missing kinds: %+v", kinds)
	}
}

func TestWatchdogShareShift(t *testing.T) {
	w := NewWatchdog(SLOConfig{}, 0)
	w.Observe(snapFor(100, 5, 4, 8, FactorStat{Name: FactorLockWait, Share: 0.12}))
	w.Observe(snapFor(100, 5, 4, 8, FactorStat{Name: FactorLockWait, Share: 0.41}))
	as := w.Anomalies(0)
	if len(as) != 1 {
		t.Fatalf("got %d anomalies, want 1 share shift: %+v", len(as), as)
	}
	a := as[0]
	if a.Kind != AnomalyShare || a.Factor != FactorLockWait {
		t.Fatalf("unexpected anomaly: %+v", a)
	}
	if !strings.Contains(a.Msg, "12%→41%") {
		t.Fatalf("message should carry the share movement, got %q", a.Msg)
	}
}

func TestWatchdogVarianceSpikeAndMinTxns(t *testing.T) {
	w := NewWatchdog(SLOConfig{MinTxns: 50}, 0)
	w.Observe(snapFor(100, 5, 1, 8))
	w.Observe(snapFor(10, 5, 100, 8)) // under MinTxns: ignored entirely
	w.Observe(snapFor(100, 5, 10, 8)) // 10x the previous evaluated window
	as := w.Anomalies(0)
	if len(as) != 1 || as[0].Kind != AnomalyVarSpike {
		t.Fatalf("want exactly one variance-spike anomaly, got %+v", as)
	}
}

func TestWatchdogRingBound(t *testing.T) {
	w := NewWatchdog(SLOConfig{P99TargetMs: 1}, 4)
	for i := 0; i < 20; i++ {
		w.Observe(snapFor(100, 5, 4, 10))
	}
	if got := len(w.Anomalies(0)); got != 4 {
		t.Fatalf("ring retained %d, want cap 4", got)
	}
	if w.Total() != 20 {
		t.Fatalf("Total = %d, want 20", w.Total())
	}
	if got := len(w.Anomalies(2)); got != 2 {
		t.Fatalf("Anomalies(2) returned %d", got)
	}
}

// --- Sampler ---

func TestSamplerUnlimitedAdmitsAll(t *testing.T) {
	s := NewSampler(SamplingConfig{Budget: -1})
	for i := 0; i < 1000; i++ {
		if !s.Admit() {
			t.Fatal("negative budget must admit every transaction")
		}
	}
	if s.State().Modulus != 1 {
		t.Fatalf("modulus = %d, want 1", s.State().Modulus)
	}
}

func TestSamplerRetarget(t *testing.T) {
	s := NewSampler(SamplingConfig{Budget: 0.01})
	// At the fixed cost c ns per trace, 10⁷/c txn/s spend 1% of a
	// core; ten times that rate needs modulus 10.
	s.retarget(10 * 1e7 / traceCostNs)
	if m := s.State().Modulus; m != 10 {
		t.Fatalf("modulus = %d, want 10", m)
	}
	// Light load snaps back to tracing everything.
	s.retarget(100)
	if m := s.State().Modulus; m != 1 {
		t.Fatalf("modulus after load drop = %d, want 1", m)
	}
	// Zero budget: effectively off.
	s.SetBudget(0)
	s.retarget(100_000)
	if m := s.State().Modulus; m < math.MaxInt32 {
		t.Fatalf("zero budget modulus = %d, want MaxInt32", m)
	}
}

func TestSamplerModulusDutyCycle(t *testing.T) {
	s := NewSampler(SamplingConfig{Budget: 0.01})
	s.mod.Store(4)
	admitted := 0
	for i := 0; i < 400; i++ {
		if s.Admit() {
			admitted++
		}
	}
	// Interval rollover may retarget once mid-loop; accept a small band
	// around 1-in-4.
	if admitted < 90 || admitted > 110 {
		t.Fatalf("admitted %d of 400 at modulus 4, want ~100", admitted)
	}
}

func TestSamplerCostEWMA(t *testing.T) {
	s := NewSampler(SamplingConfig{})
	base := s.costPerTrace()
	if base != traceCostNs {
		t.Fatalf("initial cost = %d, want %d (no spans observed)", base, traceCostNs)
	}
	for i := 0; i < 64; i++ {
		s.NoteTraceEvents(20)
	}
	got, want := s.costPerTrace(), int64(traceCostNs+20*spanCostNs)
	if got < want-want/10 || got > want {
		t.Fatalf("cost after EWMA convergence = %d, want ~%d (fixed + 20 spans)", got, want)
	}
	st := s.State()
	if st.CostPerTrace != got || st.Modulus != 1 {
		t.Fatalf("State mismatch: %+v", st)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	if !s.Admit() {
		t.Fatal("nil sampler must admit")
	}
	s.NoteTraceEvents(5)
	s.SetBudget(0.5)
	if st := s.State(); st.Modulus != 1 || st.BudgetFrac != -1 || st.CostPerTrace != 0 || st.RateTxnS != 0 || st.EstimatedFrac != 0 {
		t.Fatalf("nil sampler state %+v, want unlimited budget, modulus 1 and zeros", st)
	}
}

// TestTracerFeedsVarianceAndSink checks the End → variance/sink plumbing
// the bundle wires up: committed traces land in both, aborts in neither.
func TestTracerFeedsVarianceAndSink(t *testing.T) {
	o := NewWith(Config{Variance: VarianceConfig{Window: time.Hour}, Sampling: SamplingConfig{Budget: -1}})
	var mirrored []synthTrace
	o.Tracer.SetSink(func(totalMs float64, spans map[string]float64) {
		mirrored = append(mirrored, synthTrace{totalMs: totalMs, spans: spans})
	})
	for i := 0; i < 10; i++ {
		tc := o.Tracer.Begin(nil, uint64(i))
		tc.Record(FactorLogFlush, time.Millisecond)
		endAfter(o.Tracer, tc, 5*time.Millisecond, i == 9) // last one aborts
	}
	if len(mirrored) != 9 {
		t.Fatalf("sink saw %d traces, want 9 (aborts excluded)", len(mirrored))
	}
	snap := o.Variance.Snapshot()
	if snap.N != 9 {
		t.Fatalf("variance engine N = %d, want 9", snap.N)
	}
	found := false
	for _, f := range snap.Factors {
		if f.Name == FactorLogFlush {
			found = true
		}
	}
	if !found {
		t.Fatalf("log.flush factor missing: %+v", snap.Factors)
	}
}
