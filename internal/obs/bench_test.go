package obs

import (
	"testing"
	"time"

	"vats/internal/tprofiler"
)

// BenchmarkObsOverhead is the overhead guardrail: the disabled hot path
// must stay under ~10ns/op and an enabled counter increment under
// ~50ns/op, so instrumentation can live in every hot path permanently.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("counter-disabled", func(b *testing.B) {
		r := NewRegistry()
		r.SetEnabled(false)
		c := r.Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		var c *Counter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-enabled", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram-disabled", func(b *testing.B) {
		r := NewRegistry()
		r.SetEnabled(false)
		h := r.Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1.5)
		}
	})
	b.Run("histogram-enabled", func(b *testing.B) {
		r := NewRegistry()
		h := r.Histogram("h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(1.5)
		}
	})
	b.Run("counter-enabled-parallel", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("c")
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	// The span-capture path the sampling controller budgets: one traced
	// transaction's capture with a realistic span count (a locked read,
	// a page miss, a log flush), folded through the factor table into
	// the variance engine and offered to the slow ring. Its ns/op is the
	// traceCostNs calibration input (docs/OBSERVABILITY.md).
	b.Run("trace-span-enabled", func(b *testing.B) {
		o := NewWith(Config{Sampling: SamplingConfig{Budget: -1}})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc := o.Tracer.Begin(nil, uint64(i))
			captureTxn(tc)
			o.Tracer.End(tc, false)
		}
	})
	b.Run("trace-disabled", func(b *testing.B) {
		o := New()
		o.SetEnabled(false)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc := o.Tracer.Begin(nil, uint64(i))
			captureTxn(tc)
			o.Tracer.End(tc, false)
		}
	})
	// The per-begin cost of the sampling decision alone.
	b.Run("sampler-admit", func(b *testing.B) {
		s := NewSampler(SamplingConfig{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Admit()
		}
	})
	// The variance engine's Record with pre-aggregated spans — the
	// marginal cost of attribution once a trace is already captured.
	b.Run("variance-record", func(b *testing.B) {
		e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
		spans := []tprofiler.Span{
			{Path: FactorLockWait, Ms: 1.5}, {Path: FactorBufIO, Ms: 0.5}, {Path: FactorLogFlush, Ms: 1.0},
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Record(3.5, spans)
		}
	})
	b.Run("variance-record-parallel", func(b *testing.B) {
		e := NewVarianceEngine(VarianceConfig{Window: time.Hour})
		spans := []tprofiler.Span{
			{Path: FactorLockWait, Ms: 1.5}, {Path: FactorBufIO, Ms: 0.5}, {Path: FactorLogFlush, Ms: 1.0},
		}
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				e.Record(3.5, spans)
			}
		})
	})
}

// captureTxn records the span shape of a one-statement read-write
// transaction into tc.
func captureTxn(tc *tprofiler.TxnCtx) {
	sel := tc.Enter("exec.select")
	lk := tc.Enter("lock.wait.write")
	tc.Exit(lk)
	row := tc.Enter("row.read")
	tc.Record(FactorBufLRU, 0)
	tc.Record(FactorBufIO, time.Millisecond)
	tc.Exit(row)
	tc.Exit(sel)
	c := tc.Enter("commit")
	fl := tc.Enter(FactorLogFlush)
	tc.Exit(fl)
	tc.Exit(c)
}
