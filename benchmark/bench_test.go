package main

// Self-tests of the benchmark's own arithmetic. None of them depends on
// how long anything takes.

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestPoissonScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const rate, dur = 5000.0, 2 * time.Second
	a := poissonSchedule(7, 2, rate, dur)
	b := poissonSchedule(7, 2, rate, dur)
	if len(a) != len(b) {
		t.Fatalf("same seed, %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, arrival %d due at %d and %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= int64(dur) || i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrival %d due at %d: not ascending inside the phase", i, a[i])
		}
	}
	// The count of a Poisson process has mean and variance rate × dur.
	want := rate * dur.Seconds()
	if d := math.Abs(float64(len(a)) - want); d > 6*math.Sqrt(want) {
		t.Errorf("%d arrivals, want %.0f ± %.0f", len(a), want, 6*math.Sqrt(want))
	}
	for _, other := range [][]int64{poissonSchedule(8, 2, rate, dur), poissonSchedule(7, 3, rate, dur)} {
		if len(other) > 0 && other[0] == a[0] {
			t.Error("another seed or phase gave the same first arrival")
		}
	}
}

func TestArrivalInputsDoNotDependOnTheClaimingStream(t *testing.T) {
	a, b := newRnd(3, 2, 41), newRnd(3, 2, 41)
	c := newRnd(3, 2, 42)
	if a.u64() != b.u64() {
		t.Error("same (seed, phase, seq) gave different inputs")
	}
	if x := newRnd(3, 2, 41); x.u64() == c.u64() {
		t.Error("consecutive arrivals gave the same inputs")
	}
}

func TestZipfIsSkewedAndInRange(t *testing.T) {
	z := newZipf(1000, 0.9)
	r := newRnd(1, 0, 0)
	hits := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		k := z.rank(r.float())
		if k < 0 || k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		hits[k]++
	}
	// With theta 0.9 over 1000 ranks, rank 0 has 1/zeta ≈ 9.4% of the
	// draws and rank 100 about a sixtieth of that.
	if hits[0] < 8500 || hits[0] > 10500 || hits[100] > hits[0]/30 {
		t.Errorf("rank 0 drew %d of 100000, rank 100 drew %d: not zipfian", hits[0], hits[100])
	}
}

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([10, 20], n=4)
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("quartiles of two = %v %v %v, want 7.5 15 22.5", q1, q2, q3)
	}
}

// synthPhase builds an open phase whose arrivals are due every ms
// (at half past) and whose records the test fills in.
func synthPhase(n int) *phase {
	p := &phase{rate: 1000, dur: time.Duration(n) * time.Millisecond}
	p.due = make([]int64, n)
	p.recs = make([]rec, n)
	for i := range p.due {
		p.due[i] = int64(i)*int64(time.Millisecond) + int64(time.Millisecond)/2
	}
	return p
}

func TestSummariseCountsBacklogFailuresAndMisses(t *testing.T) {
	const n = 3000 // three spans of a thousand arrivals
	p := synthPhase(n)
	for i := range p.recs {
		// Each arrival is issued 0.1 ms late and takes 2 ms …
		p.recs[i] = rec{lag: ticks(100_000) | waitedBit, lat: ticks(2_000_000)}
	}
	// … except: ten late in the phase take 30 ms, three fail, and the
	// last twenty are issued only after the phase's scheduled end.
	for i := 2700; i < 2710; i++ {
		p.recs[i].lat = ticks(30_000_000)
	}
	for i := 2720; i < 2723; i++ {
		p.recs[i].lat = failedLat
	}
	for i := n - 20; i < n-10; i++ {
		p.recs[i].lag = ticks(25_000_000)
		p.recs[i].lat = ticks(27_000_000)
	}
	for i := n - 10; i < n; i++ {
		p.recs[i] = rec{} // never issued
	}
	st := p.summarise()
	if st.arrivals != n || st.failed != 13 || st.ok != n-13 {
		t.Errorf("arrivals %d ok %d failed %d, want %d %d 13", st.arrivals, st.ok, st.failed, n, n-13)
	}
	// All of that falls in the last of the three spans, whose p99 is
	// therefore well over 2 ms, or infinite with the failures; the
	// other two spans' is 2 ms, and so is the median.
	if st.p99Sliced != 2 || st.p99WithFailed != 2 {
		t.Errorf("sliced p99 %v, with failures %v, want 2 and 2", st.p99Sliced, st.p99WithFailed)
	}
	if st.backlogMid != 0 || st.backlogEnd != 20 {
		t.Errorf("backlog mid %d end %d, want 0 and 20", st.backlogMid, st.backlogEnd)
	}
	if math.Abs(st.p50-2) > 1e-9 || math.Abs(st.lagP99-0.1) > 1e-9 {
		t.Errorf("p50 %v lag p99 %v, want 2 and 0.1", st.p50, st.lagP99)
	}
	if p.recs != nil || p.due != nil {
		t.Error("summarise kept the per-arrival records")
	}
}

func TestSpansAreOddAndHold800Arrivals(t *testing.T) {
	for n, want := range map[int]int{0: 1, 224: 1, 1599: 1, 2464: 3, 3344: 3, 5280: 5, 8000: 9, 105600: 11, 2640000: 11} {
		if got := spans(n); got != want {
			t.Errorf("spans(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSLOLadder(t *testing.T) {
	good := func(offered float64) rung {
		return rung{offered: offered, achieved: offered * 0.99, arrivals: 10000, p99Ms: 9, backlogMid: 2, backlogEnd: 3}
	}
	r1, r2, r3 := good(100), good(200), good(300)
	sloRate := func(rungs []rung) float64 { return sloRate(rungs, 10) }

	if got := sloRate([]rung{r1, r2, r3}); got != r3.achieved {
		t.Errorf("all rungs meet: %v, want %v", got, r3.achieved)
	}
	slow := r3
	slow.p99Ms = 10.5
	if got := sloRate([]rung{r1, r2, slow}); got != r2.achieved {
		t.Errorf("r3 over the latency limit: %v, want %v", got, r2.achieved)
	}
	growing := r3
	growing.backlogMid, growing.backlogEnd = 400, 900
	if got := sloRate([]rung{r1, r2, growing}); got != r2.achieved {
		t.Errorf("r3 with a growing backlog: %v, want %v", got, r2.achieved)
	}
	failing := r2
	failing.failFrac, failing.p99Ms = 0.02, math.Inf(1)
	if got := sloRate([]rung{r1, failing, growing}); got != r1.achieved {
		t.Errorf("r2 failing 2%%: %v, want %v", got, r1.achieved)
	}
	if got := sloRate([]rung{failing, growing}); got != 0 {
		t.Errorf("no rung meets: %v, want 0", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	l := &spanLog{txn: -1, cur: -1}
	l.spans = []span{
		{Txn: 5, Parent: -1, Name: "txn", Start: 0, End: 1000},
		{Txn: 5, Parent: 0, Name: "engine.write", Start: 100, End: 300},
		{Txn: 5, Parent: 0, Name: "engine.commit", Start: 300, End: 900},
	}
	dl := &devLog{spans: []devSpan{
		{name: "disk.log.sync", start: 400, end: 800, owner: l, parent: 2},
		{name: "disk.data.write", start: 50, end: 150, parent: -1},
	}}
	spans := mergeSpans("traced", 2000, []*spanLog{l}, dl)
	mean, n := selfTimes(spans)
	want := map[string]float64{
		"txn": 200, "engine.write": 200, "engine.commit": 200, "disk.log.sync": 400, "disk.data.write": 100,
		"phase.traced": 2000 - 1000 - 100,
	}
	for name, w := range want {
		if mean[name] != w || n[name] != 1 {
			t.Errorf("%s: self time %v over %d spans, want %v over 1", name, mean[name], n[name], w)
		}
	}
	if s := spans[4]; s.Name != "disk.log.sync" || s.Parent != 3 || s.Txn != 5 {
		t.Errorf("device span %+v: want caused by span 3 (engine.commit) of txn 5", s)
	}
	if s := spans[5]; s.Parent != 0 || s.Txn != -1 {
		t.Errorf("unattributed device span %+v: want caused by the phase", s)
	}
}

func TestVerdicts(t *testing.T) {
	a := summarise([]float64{100, 101, 99, 100, 102})
	for _, c := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{103, 104, 102, 103, 105}, "lower", "ok"},
		{[]float64{115, 116, 114, 115, 117}, "lower", "regressed"},
		{[]float64{115, 116, 114, 115, 117}, "higher", "ok"},
		{[]float64{85, 86, 84, 85, 87}, "higher", "regressed"},
		{[]float64{80, 130, 100, 70, 125}, "lower", "unresolved"},
	} {
		if got, _ := verdict(a, summarise(c.b), c.better, 0.10); got != c.want {
			t.Errorf("B=%v better=%s: %s, want %s", c.b, c.better, got, c.want)
		}
	}
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program to the
// same names, units and limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(spec.Workloads) > 8 || len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: over 8 / 16 / 128",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("unit %q of %s is malformed", u, n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads named, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d + %d metrics named, program emits %d + %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayerDefs))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s (%s), program emits %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
	for i, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if m.Name != perLayerDefs[i].name || m.Unit != perLayerDefs[i].unit {
			t.Errorf("per-layer %d: %s (%s), program emits %s (%s)", i, m.Name, m.Unit, perLayerDefs[i].name, perLayerDefs[i].unit)
		}
	}
}

// TestSmoke runs every workload for one second, tracing off and on,
// and asserts only what the clock cannot change: the audits pass and
// every named metric is emitted.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(threads())
	out := t.TempDir()
	if err := smokeAll(workloads, 1, out); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.IsDir() {
			t.Errorf("scratch directory %s was left behind", e.Name())
		}
	}
}
