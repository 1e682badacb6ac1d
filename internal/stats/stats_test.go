package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestWelfordBasic(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("n = %d, want 8", w.N())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	if !almostEqual(w.Variance(), 4, 1e-12) {
		t.Errorf("variance = %v, want 4", w.Variance())
	}
	if !almostEqual(w.StdDev(), 2, 1e-12) {
		t.Errorf("stddev = %v, want 2", w.StdDev())
	}
	if !almostEqual(w.CoV(), 0.4, 1e-12) {
		t.Errorf("cov = %v, want 0.4", w.CoV())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CoV() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(3)
	if w.Mean() != 3 {
		t.Errorf("mean = %v, want 3", w.Mean())
	}
	if w.Variance() != 0 {
		t.Errorf("single-observation variance = %v, want 0", w.Variance())
	}
}

func TestWelfordSampleVariance(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4} {
		w.Add(x)
	}
	// population variance = 1.25, sample = 5/3
	if !almostEqual(w.Variance(), 1.25, 1e-12) {
		t.Errorf("pop variance = %v", w.Variance())
	}
	if !almostEqual(w.SampleVariance(), 5.0/3.0, 1e-12) {
		t.Errorf("sample variance = %v", w.SampleVariance())
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var all Welford
	for _, x := range xs {
		all.Add(x)
	}
	var a, b Welford
	for i, x := range xs {
		if i < 400 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged n = %d, want %d", a.N(), all.N())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
		t.Errorf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if !almostEqual(a.Variance(), all.Variance(), 1e-9) {
		t.Errorf("merged variance %v vs %v", a.Variance(), all.Variance())
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.Add(5)
	b.Add(7)
	a.Merge(&b) // empty += nonempty
	if a.N() != 2 || !almostEqual(a.Mean(), 6, 1e-12) {
		t.Fatalf("merge into empty: n=%d mean=%v", a.N(), a.Mean())
	}
	var c Welford
	a.Merge(&c) // nonempty += empty
	if a.N() != 2 {
		t.Fatalf("merge of empty changed n: %d", a.N())
	}
}

func TestCovKnownValues(t *testing.T) {
	var c Cov
	// y = 2x exactly: correlation 1, cov = 2*var(x)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		c.Add(x, 2*x)
	}
	if !almostEqual(c.Correlation(), 1, 1e-12) {
		t.Errorf("corr = %v, want 1", c.Correlation())
	}
	if !almostEqual(c.Covariance(), 4, 1e-12) {
		t.Errorf("cov = %v, want 4 (=2*var(x)=2*2)", c.Covariance())
	}
}

func TestCovAntiCorrelated(t *testing.T) {
	var c Cov
	for _, x := range []float64{1, 2, 3, 4, 5} {
		c.Add(x, -3*x+7)
	}
	if !almostEqual(c.Correlation(), -1, 1e-12) {
		t.Errorf("corr = %v, want -1", c.Correlation())
	}
}

func TestCovConstantSeriesIsZero(t *testing.T) {
	var c Cov
	for i := 0; i < 10; i++ {
		c.Add(5, float64(i))
	}
	if c.Correlation() != 0 {
		t.Errorf("constant x should give correlation 0, got %v", c.Correlation())
	}
}

func TestCorrelationFunc(t *testing.T) {
	if _, err := Correlation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Error("expected too-few-pairs error")
	}
	r, err := Correlation([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("corr = %v err = %v", r, err)
	}
}

func TestLpNorm(t *testing.T) {
	xs := []float64{3, 4}
	if !almostEqual(LpNorm(xs, 2), 5, 1e-12) {
		t.Errorf("L2 = %v, want 5", LpNorm(xs, 2))
	}
	if !almostEqual(LpNorm(xs, 1), 7, 1e-12) {
		t.Errorf("L1 = %v, want 7", LpNorm(xs, 1))
	}
	if !almostEqual(LpNorm(xs, math.Inf(1)), 4, 1e-12) {
		t.Errorf("Linf = %v, want 4", LpNorm(xs, math.Inf(1)))
	}
	if LpNorm(nil, 2) != 0 {
		t.Error("empty LpNorm should be 0")
	}
	if LpNorm([]float64{0, 0}, 3) != 0 {
		t.Error("all-zero LpNorm should be 0")
	}
}

func TestLpNormPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p < 1")
		}
	}()
	LpNorm([]float64{1}, 0.5)
}

func TestLpNormLargePNoOverflow(t *testing.T) {
	xs := []float64{1e300, 5e299}
	got := LpNorm(xs, 50)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("L50 overflowed: %v", got)
	}
	if got < 1e300 {
		t.Errorf("L50 = %v, should be >= max element", got)
	}
}

// Property: Lp norm is non-increasing in p for p >= 1 (power-mean inequality
// applied to norms), and always >= max element.
func TestLpNormMonotoneInP(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, math.Mod(math.Abs(x), 1e6))
		}
		if len(xs) == 0 {
			return true
		}
		l1 := LpNorm(xs, 1)
		l2 := LpNorm(xs, 2)
		l4 := LpNorm(xs, 4)
		linf := LpNorm(xs, math.Inf(1))
		const slack = 1e-9
		return l1 >= l2-slack*(1+l1) && l2 >= l4-slack*(1+l2) && l4 >= linf-slack*(1+l4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); got != 35 {
		t.Errorf("p50 = %v, want 35", got)
	}
	// Interpolated: pos = 0.25*4 = 1.0 exactly -> 20
	if got := Percentile(xs, 0.25); got != 20 {
		t.Errorf("p25 = %v, want 20", got)
	}
	if got := Percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single p99 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile([]float64{1}, 1.5)
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("n = %d", s.N)
	}
	if !almostEqual(s.Mean, 22, 1e-12) {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Max != 100 {
		t.Errorf("max = %v", s.Max)
	}
	if s.P50 != 3 {
		t.Errorf("p50 = %v", s.P50)
	}
	if s.P99 <= s.P50 {
		t.Errorf("p99 = %v should exceed p50", s.P99)
	}
	if Summarize(nil).N != 0 {
		t.Error("empty summarize should be zero")
	}
}

// Property: the variance decomposition Var(X+Y) = Var(X)+Var(Y)+2Cov(X,Y)
// (eq. 1 of the paper, for two children) holds for arbitrary data.
func TestVarianceDecompositionIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		xs := make([]float64, n)
		ys := make([]float64, n)
		sums := make([]float64, n)
		var c Cov
		for i := 0; i < n; i++ {
			xs[i] = rng.NormFloat64() * 2
			ys[i] = xs[i]*0.5 + rng.NormFloat64()
			sums[i] = xs[i] + ys[i]
			c.Add(xs[i], ys[i])
		}
		lhs := Variance(sums)
		rhs := Variance(xs) + Variance(ys) + 2*c.Covariance()
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRatioOf(t *testing.T) {
	base := Summary{Mean: 10, Variance: 100, P99: 50}
	mod := Summary{Mean: 5, Variance: 20, P99: 25}
	r := RatioOf(base, mod)
	if r.Mean != 2 || r.Variance != 5 || r.P99 != 2 {
		t.Errorf("ratio = %+v", r)
	}
	zero := RatioOf(base, Summary{})
	if zero.Mean != 0 || zero.Variance != 0 || zero.P99 != 0 {
		t.Errorf("zero-denominator ratio should clamp to 0, got %+v", zero)
	}
}

func TestSummaryAndRatioString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Error("empty summary string")
	}
	r := RatioOf(s, s)
	if r.String() == "" {
		t.Error("empty ratio string")
	}
	if !almostEqual(r.Mean, 1, 1e-12) {
		t.Errorf("self ratio mean = %v", r.Mean)
	}
}

func TestDurationsToMillis(t *testing.T) {
	ds := []time.Duration{time.Millisecond, 2500 * time.Microsecond}
	ms := DurationsToMillis(ds)
	if ms[0] != 1 || ms[1] != 2.5 {
		t.Errorf("got %v", ms)
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("mean wrong")
	}
	if Variance([]float64{5}) != 0 {
		t.Error("variance of singleton should be 0")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(1000)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 100; i++ {
				r.Record(time.Millisecond)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if r.Len() != 800 {
		t.Fatalf("len = %d, want 800", r.Len())
	}
	s := r.Summary()
	if !almostEqual(s.Mean, 1, 1e-9) {
		t.Errorf("mean = %v, want 1ms", s.Mean)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestRecorderSnapshotIsCopy(t *testing.T) {
	r := NewRecorder(4)
	r.RecordValue(1)
	snap := r.Snapshot()
	snap[0] = 99
	if r.Snapshot()[0] != 1 {
		t.Fatal("snapshot aliases internal storage")
	}
}

func TestWelfordAddZeros(t *testing.T) {
	// Adding k zeros via AddZeros must equal adding them one by one.
	var a, b Welford
	for _, x := range []float64{3, 7, 1} {
		a.Add(x)
		b.Add(x)
	}
	a.AddZeros(5)
	for i := 0; i < 5; i++ {
		b.Add(0)
	}
	if a.N() != b.N() || !almostEqual(a.Mean(), b.Mean(), 1e-12) || !almostEqual(a.Variance(), b.Variance(), 1e-12) {
		t.Fatalf("AddZeros: got n=%d mean=%v var=%v, want n=%d mean=%v var=%v",
			a.N(), a.Mean(), a.Variance(), b.N(), b.Mean(), b.Variance())
	}
	// Leading zeros into an empty accumulator.
	var c Welford
	c.AddZeros(3)
	c.Add(6)
	var d Welford
	for _, x := range []float64{0, 0, 0, 6} {
		d.Add(x)
	}
	if !almostEqual(c.Variance(), d.Variance(), 1e-12) {
		t.Fatalf("leading AddZeros variance = %v, want %v", c.Variance(), d.Variance())
	}
}

func TestCovMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole Cov
	var left, right Cov
	for i := 0; i < 500; i++ {
		x := rng.NormFloat64() * 3
		y := 0.5*x + rng.NormFloat64()
		whole.Add(x, y)
		if i < 180 {
			left.Add(x, y)
		} else {
			right.Add(x, y)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged n = %d, want %d", left.N(), whole.N())
	}
	if !almostEqual(left.Covariance(), whole.Covariance(), 1e-9) {
		t.Errorf("merged covariance = %v, want %v", left.Covariance(), whole.Covariance())
	}
	if !almostEqual(left.Correlation(), whole.Correlation(), 1e-9) {
		t.Errorf("merged correlation = %v, want %v", left.Correlation(), whole.Correlation())
	}

	// Merge into empty and merge of empty are identities.
	var empty Cov
	empty.Merge(&whole)
	if !almostEqual(empty.Covariance(), whole.Covariance(), 1e-12) {
		t.Error("merge into empty lost state")
	}
	before := whole.Covariance()
	var none Cov
	whole.Merge(&none)
	if whole.Covariance() != before {
		t.Error("merge of empty changed state")
	}
}

func TestCovAddZeros(t *testing.T) {
	var a, b Cov
	for i := 0; i < 10; i++ {
		x := float64(i)
		a.Add(x, 2*x)
		b.Add(x, 2*x)
	}
	a.AddZeros(7)
	for i := 0; i < 7; i++ {
		b.Add(0, 0)
	}
	if a.N() != b.N() || !almostEqual(a.Covariance(), b.Covariance(), 1e-9) {
		t.Fatalf("AddZeros: cov = %v (n=%d), want %v (n=%d)", a.Covariance(), a.N(), b.Covariance(), b.N())
	}
}
