package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Sampler is the adaptive sampling controller that keeps span-capture
// overhead inside a stated budget. Counters and histograms always
// count — they are a few nanoseconds each — but per-transaction span
// capture (the capture's allocation, its spans, the factor fold and
// variance recording) costs a few microseconds per transaction, so at
// a high enough transaction rate it must duty-cycle.
//
// The budget model: with λ the observed transaction begin rate (txn/s)
// and c the estimated per-traced-transaction instrumentation cost
// (ns), tracing every m-th transaction spends (λ/m)·c ns of CPU per
// second. The controller picks the smallest modulus m such that
//
//	(λ/m) · c  ≤  budget · 10⁹   (budget = fraction of one core)
//
// re-evaluated every control interval from the rate observed in that
// interval. m snaps back to 1 the moment load drops, so light traffic
// is always fully traced. The decision itself (Admit) is two atomic
// ops on the begin path; the cost estimate c is refreshed by an EWMA
// over observed per-capture span counts.
type Sampler struct {
	// budgetMicro is the budget in millionths of one core (atomic
	// float-free storage); 10_000 = 1%.
	budgetMicro atomic.Int64
	// spanEWMA holds the average spans-per-capture estimate ×1000.
	spanEWMA atomic.Int64

	// mod is the current sampling modulus (≥ 1).
	mod atomic.Int64
	// n counts Admit calls; Admit passes when n % mod == 0.
	n atomic.Uint64

	// Control interval bookkeeping.
	intervalStart atomic.Int64 // unix nanos
	intervalN     atomic.Int64 // begins this interval
	lastRate      atomic.Int64 // txn/s ×1 from the last closed interval
}

// SamplingConfig configures the controller; the zero value gets the
// default budget (1% of one core).
type SamplingConfig struct {
	// Budget is the span-capture overhead budget as a fraction of one
	// core (default 0.01 = 1%). Negative disables duty-cycling: every
	// transaction is traced regardless of rate.
	Budget float64
}

// Calibration constants; see docs/OBSERVABILITY.md ("The overhead
// budget model") for where the costs come from. traceCostNs is the
// fixed cost of one traced capture, spanCostNs the marginal cost of
// each span in it, sampleControl the control period.
const (
	defaultSampleBudget = 0.01
	traceCostNs         = 2000
	spanCostNs          = 150
	sampleControl       = 250 * time.Millisecond
)

// NewSampler returns a controller with the given budget.
func NewSampler(cfg SamplingConfig) *Sampler {
	s := &Sampler{}
	if cfg.Budget == 0 {
		cfg.Budget = defaultSampleBudget
	}
	s.SetBudget(cfg.Budget)
	s.mod.Store(1)
	s.intervalStart.Store(time.Now().UnixNano())
	return s
}

// SetBudget replaces the overhead budget (fraction of one core) at
// runtime; negative disables duty-cycling.
func (s *Sampler) SetBudget(frac float64) {
	if s == nil {
		return
	}
	if frac < 0 {
		s.budgetMicro.Store(-1)
		s.mod.Store(1)
		return
	}
	s.budgetMicro.Store(int64(frac * 1e6))
}

// Admit decides whether the next transaction's spans are captured. It
// is called on every transaction begin (a nil sampler admits all).
func (s *Sampler) Admit() bool {
	if s == nil {
		return true
	}
	n := s.n.Add(1)
	s.intervalN.Add(1)
	start := s.intervalStart.Load()
	now := time.Now().UnixNano()
	if now-start >= int64(sampleControl) && s.intervalStart.CompareAndSwap(start, now) {
		// One winner per interval recomputes the modulus from the
		// closed interval's rate; everyone else proceeds.
		cnt := s.intervalN.Swap(0)
		elapsed := now - start
		if elapsed > 0 {
			rate := float64(cnt) * float64(time.Second) / float64(elapsed)
			s.lastRate.Store(int64(rate))
			s.retarget(rate)
		}
	}
	m := s.mod.Load()
	if m <= 1 {
		return true
	}
	return n%uint64(m) == 0
}

// retarget picks the smallest modulus keeping estimated overhead
// within budget at the given txn rate.
func (s *Sampler) retarget(rate float64) {
	b := s.budgetMicro.Load()
	if b < 0 {
		s.mod.Store(1)
		return
	}
	budgetNsPerSec := float64(b) * 1e9 / 1e6
	spend := rate * float64(s.costPerTrace())
	if budgetNsPerSec <= 0 {
		// Zero budget: trace as little as the modulus can express.
		s.mod.Store(math.MaxInt32)
		return
	}
	m := int64(math.Ceil(spend / budgetNsPerSec))
	if m < 1 {
		m = 1
	}
	if m > math.MaxInt32 {
		m = math.MaxInt32
	}
	s.mod.Store(m)
}

// NoteTraceEvents feeds the controller one completed capture's span
// count, refreshing the per-trace cost EWMA.
func (s *Sampler) NoteTraceEvents(spans int) {
	if s == nil {
		return
	}
	const alpha = 8 // EWMA weight denominator
	old := s.spanEWMA.Load()
	sample := int64(spans) * 1000
	s.spanEWMA.Store(old + (sample-old)/alpha)
}

// costPerTrace is the current per-traced-transaction cost estimate
// (ns): the fixed cost plus the span EWMA times the per-span cost.
func (s *Sampler) costPerTrace() int64 {
	return traceCostNs + s.spanEWMA.Load()*spanCostNs/1000
}

// SamplerState is a point-in-time controller summary for the JSON
// endpoints: the budget (negative = unlimited), the modulus, the rate
// observed in the last closed control interval, the cost estimate and
// the overhead they imply as a fraction of one core.
type SamplerState struct {
	BudgetFrac    float64 `json:"budget_frac"`
	Modulus       int64   `json:"modulus"`
	RateTxnS      float64 `json:"rate_txn_s"`
	CostPerTrace  int64   `json:"est_cost_per_trace_ns"`
	EstimatedFrac float64 `json:"est_overhead_frac"`
}

// State snapshots the controller.
func (s *Sampler) State() SamplerState {
	if s == nil {
		return SamplerState{BudgetFrac: -1, Modulus: 1}
	}
	st := SamplerState{
		BudgetFrac:   -1,
		Modulus:      max(s.mod.Load(), 1),
		RateTxnS:     float64(s.lastRate.Load()),
		CostPerTrace: s.costPerTrace(),
	}
	if b := s.budgetMicro.Load(); b >= 0 {
		st.BudgetFrac = float64(b) / 1e6
	}
	st.EstimatedFrac = st.RateTxnS / float64(st.Modulus) * float64(st.CostPerTrace) / 1e9
	return st
}
