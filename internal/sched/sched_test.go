package sched

import (
	"math"
	"testing"

	"vats/internal/stats"
	"vats/internal/xrand"
)

func TestSimulateHandComputed(t *testing.T) {
	// Two transactions arrive together; ages 0 and 5; R = 1 each.
	menu := Menu{{Age: 0, Arrival: 0}, {Age: 5, Arrival: 0}}
	r := []float64{1, 1}
	rng := xrand.New(1)

	// FCFS (tie → menu order): young first.
	lat := Simulate(menu, r, ArrivalOrder{}, rng)
	if lat[0] != 1 || lat[1] != 7 {
		t.Fatalf("FCFS latencies = %v, want [1 7]", lat)
	}
	// VATS: eldest first.
	lat = Simulate(menu, r, EldestFirst{}, rng)
	if lat[1] != 6 || lat[0] != 2 {
		t.Fatalf("VATS latencies = %v, want [2 6]", lat)
	}
	// L2: VATS sqrt(40) < FCFS sqrt(50).
}

func TestSimulateRespectsArrivalGaps(t *testing.T) {
	menu := Menu{{Age: 0, Arrival: 0}, {Age: 100, Arrival: 10}}
	r := []float64{1, 1}
	lat := Simulate(menu, r, EldestFirst{}, xrand.New(1))
	// Txn 0 served at t=0..1 (alone); txn 1 arrives at 10, served 10..11.
	if lat[0] != 1 {
		t.Fatalf("lat0 = %v", lat[0])
	}
	if lat[1] != 101 {
		t.Fatalf("lat1 = %v", lat[1])
	}
}

func TestSimulateServerIdleJump(t *testing.T) {
	menu := Menu{{Age: 0, Arrival: 5}}
	lat := Simulate(menu, []float64{2}, ArrivalOrder{}, xrand.New(1))
	if lat[0] != 2 {
		t.Fatalf("lat = %v, want 2 (no wait before arrival)", lat[0])
	}
}

func TestSimulateLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Simulate(Menu{{}}, nil, ArrivalOrder{}, xrand.New(1))
}

func TestPolicyNames(t *testing.T) {
	if (EldestFirst{}).Name() != "VATS" || (ArrivalOrder{}).Name() != "FCFS" ||
		(Random{}).Name() != "RS" || (Oracle{}).Name() != "SRT-oracle" {
		t.Fatal("policy names")
	}
}

// Theorem 1 (empirical): for random menus and i.i.d. remaining times,
// VATS's expected Lp is no worse than FCFS's and RS's. The policies are
// compared on common random numbers — each gets its own draw built from
// the same seed, so all see the same R sequence — over a fixed table of
// seeds. At p = 1 the theorem is an equality (every R-oblivious
// work-conserving order has the same expected total latency), so VATS
// must match the others within sampling error; at p ∈ {2, 4} it must
// win.
func TestTheorem1VATSBeatsLegalPolicies(t *testing.T) {
	const trials = 300
	// lp returns s's Lp norm on each of trials drawings of R; calls with
	// the same seed draw the same R sequence.
	lp := func(menu Menu, s Policy, p float64, seed int64) []float64 {
		rng := xrand.New(seed)
		draw := func() float64 { return rng.ExpFloat64() * 2 }
		out := make([]float64, trials)
		for i := range out {
			out[i] = ExpectedLp(menu, draw, s, p, 1, seed+int64(i))
		}
		return out
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		rng := xrand.New(seed)
		menu := RandomMenu(6+rng.Intn(8), rng)
		drawSeed := seed + 1000
		for _, p := range []float64{1, 2, 4} {
			vats := lp(menu, EldestFirst{}, p, drawSeed)
			for _, other := range []Policy{ArrivalOrder{}, Random{}} {
				var d stats.Welford
				for i, x := range lp(menu, other, p, drawSeed) {
					d.Add(vats[i] - x)
				}
				se := math.Sqrt(d.SampleVariance() / trials)
				if p == 1 && math.Abs(d.Mean()) > 4*se {
					t.Errorf("seed %d p=1: VATS − %s = %.3f, beyond 4 standard errors (%.3f) of the equality", seed, other.Name(), d.Mean(), se)
				}
				if p > 1 && d.Mean() > 0 {
					t.Errorf("seed %d p=%v: VATS worse than %s by %.3f (se %.3f)", seed, p, other.Name(), d.Mean(), se)
				}
			}
		}
	}
}

func TestVATSStrictlyBetterOnContendedMenu(t *testing.T) {
	// Everyone arrives at once with widely spread ages and variable R:
	// the regime where eldest-first demonstrably wins.
	menu := make(Menu, 10)
	for i := range menu {
		menu[i] = TxnSpec{Age: float64(i * 3), Arrival: 0}
	}
	rng := xrand.New(42)
	draw := func() float64 { return rng.ExpFloat64() }
	vats := ExpectedLp(menu, draw, EldestFirst{}, 2, 500, 7)
	fcfs := ExpectedLp(menu, draw, ArrivalOrder{}, 2, 500, 7)
	if vats >= fcfs {
		t.Fatalf("VATS %v not better than FCFS %v on the contended menu", vats, fcfs)
	}
}

func TestOracleCanBeatVATSOnMean(t *testing.T) {
	// The clairvoyant SRT oracle minimizes L1 (mean completion) given
	// realized R; it may beat VATS, which is only optimal among policies
	// that cannot see R. This documents the theorem's information model.
	menu := make(Menu, 8)
	for i := range menu {
		menu[i] = TxnSpec{Age: 0, Arrival: 0}
	}
	rng := xrand.New(9)
	draw := func() float64 { return rng.ExpFloat64() * 3 }
	oracle := ExpectedLp(menu, draw, Oracle{}, 1, 400, 11)
	vats := ExpectedLp(menu, draw, EldestFirst{}, 1, 400, 11)
	if oracle > vats*1.02 {
		t.Fatalf("SRT oracle %v worse than VATS %v on L1 — simulator broken", oracle, vats)
	}
}

func TestEqualAgesMakeVATSMatchFCFS(t *testing.T) {
	// With identical ages and arrivals VATS degenerates to an arbitrary
	// fixed order; expected Lp must equal FCFS's (same coupling of i.i.d
	// draws, symmetric positions).
	menu := make(Menu, 6)
	for i := range menu {
		menu[i] = TxnSpec{Age: 1, Arrival: 0}
	}
	rng := xrand.New(5)
	draw := func() float64 { return rng.ExpFloat64() }
	vats := ExpectedLp(menu, draw, EldestFirst{}, 2, 800, 3)
	fcfs := ExpectedLp(menu, draw, ArrivalOrder{}, 2, 800, 3)
	if math.Abs(vats-fcfs)/fcfs > 0.05 {
		t.Fatalf("symmetric menu: VATS %v vs FCFS %v should match", vats, fcfs)
	}
}

func TestRandomMenuShape(t *testing.T) {
	rng := xrand.New(3)
	m := RandomMenu(20, rng)
	if len(m) != 20 {
		t.Fatal("size")
	}
	for i := 1; i < len(m); i++ {
		if m[i].Arrival < m[i-1].Arrival {
			t.Fatal("arrivals not monotone")
		}
	}
	for _, s := range m {
		if s.Age < 0 || s.Age > 10 {
			t.Fatalf("age out of range: %v", s.Age)
		}
	}
}
