package obs

import (
	"strings"
	"testing"
	"time"

	"vats/internal/tprofiler"
)

// endAfter ends a capture as if it had run for d.
func endAfter(tr *Tracer, tc *tprofiler.TxnCtx, d time.Duration, aborted bool) {
	tc.Begin = time.Now().Add(-d)
	tr.End(tc, aborted)
}

func TestFactorTable(t *testing.T) {
	tc := tprofiler.Capture(nil, true)
	sel := tc.Enter("exec.select")
	tc.Record("lock.wait.read", 3*time.Millisecond)
	row := tc.Enter("row.read")
	tc.Record(FactorBufIO, 2*time.Millisecond)
	tc.Record(FactorBufLRU, 0) // zero: no factor entry
	tc.Exit(row)
	tc.Exit(sel)
	upd := tc.Enter("exec.update")
	tc.Record("lock.wait.write", time.Millisecond)
	tc.Exit(upd)
	c := tc.Enter("commit")
	tc.Record(FactorLogFlush, 1500*time.Microsecond)
	tc.Exit(c)
	tc.Record(FactorNetQueueWait, 250*time.Microsecond)
	tc.End()
	got := factorMap(tc)
	want := map[string]float64{FactorLockWait: 4, FactorBufIO: 2, FactorLogFlush: 1.5, FactorNetQueueWait: 0.25}
	if len(got) != len(want) {
		t.Fatalf("factors = %v, want %v", got, want)
	}
	for f, v := range want {
		if d := got[f] - v; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s = %v ms, want %v (all: %v)", f, got[f], v, got)
		}
	}
}

func TestTracerDisabledReturnsNil(t *testing.T) {
	tr := NewTracerSized(4, 0)
	tr.SetEnabled(false)
	if tc := tr.Begin(nil, 1); tc != nil {
		t.Fatal("disabled tracer without a profiler must hand out nil captures")
	}
	// A profiler still gets its capture; the tracer does not keep it.
	p := tprofiler.New()
	tc := tr.Begin(p, 2)
	if tc == nil || tc.Traced() {
		t.Fatalf("profiled capture under a disabled tracer: %+v", tc)
	}
	tr.End(tc, false)
	if len(tr.Slow()) != 0 || p.TxnCount() != 1 {
		t.Fatalf("ring %d, profiler %d; want 0, 1", len(tr.Slow()), p.TxnCount())
	}
	var nilTracer *Tracer
	if nilTracer.Begin(nil, 1) != nil {
		t.Fatal("nil tracer must be a no-op")
	}
	nilTracer.End(nil, false)
	nilTracer.Reset()
}

func TestTracerWorstKRetention(t *testing.T) {
	tr := NewTracerSized(3, 0)
	lat := []time.Duration{
		5 * time.Millisecond, 50 * time.Millisecond, 1 * time.Millisecond,
		20 * time.Millisecond, 100 * time.Millisecond, 2 * time.Millisecond,
	}
	for i, d := range lat {
		endAfter(tr, tr.Begin(nil, uint64(i)), d, false)
	}
	slow := tr.Slow()
	if len(slow) != 3 {
		t.Fatalf("retained %d captures, want 3", len(slow))
	}
	// Slowest-first ordering; worst three of the synthetic set are
	// 100ms, 50ms, 20ms (ids 4, 1, 3).
	wantIDs := []uint64{4, 1, 3}
	for i, tc := range slow {
		if tc.ID != wantIDs[i] {
			t.Fatalf("slow[%d].ID = %d, want %d (latencies %v)", i, tc.ID, wantIDs[i], lat)
		}
	}
	tr.Reset()
	if len(tr.Slow()) != 0 {
		t.Fatal("Reset must clear the ring")
	}
}

// TestSlowRingRanksFactors checks /debug/txns over retained captures:
// the factor totals, the timeline, and ?factors= ranking.
func TestSlowRingRanksFactors(t *testing.T) {
	o := NewWith(Config{Sampling: SamplingConfig{Budget: -1}})
	for i := 0; i < 8; i++ {
		tc := o.Tracer.Begin(nil, uint64(i))
		// Lock wait dominates the variance: it grows quadratically
		// across transactions while log flush stays fixed.
		wait := time.Duration(i*i) * time.Millisecond
		tc.Record("lock.wait.write", wait)
		tc.Record(FactorLogFlush, time.Millisecond)
		endAfter(o.Tracer, tc, 5*time.Millisecond+wait, false)
	}
	resp := txnsPayload(o, 5)
	if resp.Count != 8 {
		t.Fatalf("ring holds %d captures, want 8", resp.Count)
	}
	top := resp.Traces[0]
	if top.ID != 7 || top.Spans[FactorLockWait] != 49 || top.Spans[FactorLogFlush] != 1 {
		t.Fatalf("slowest capture %+v, want id 7 with lock.wait 49 and log.flush 1", top)
	}
	if len(top.Events) != 2 || top.Events[0].Name != "lock.wait.write" || top.Events[0].DurMs != 49 {
		t.Fatalf("timeline %+v", top.Events)
	}
	if len(resp.Factors) == 0 || resp.Factors[0].Functions[0] != FactorLockWait {
		t.Fatalf("lock.wait must rank first: %+v", resp.Factors)
	}
}

func TestObsBundleEnableDisable(t *testing.T) {
	o := New()
	if !o.Enabled() {
		t.Fatal("New() bundle must start enabled")
	}
	o.SetEnabled(false)
	if o.Enabled() || o.Tracer.enabled.Load() {
		t.Fatal("SetEnabled(false) must disable both surfaces")
	}
	var nilObs *Obs
	if OrDefault(nilObs) != Default {
		t.Fatal("OrDefault(nil) must return Default")
	}
	if OrDefault(o) != o {
		t.Fatal("OrDefault must pass explicit bundles through")
	}
	nilObs.SetEnabled(true) // must not panic
	if nilObs.Enabled() {
		t.Fatal("nil bundle is never enabled")
	}
}

func TestTracerByteBound(t *testing.T) {
	// Budget fits ~4 tagless captures; the count cap (16) is far above
	// it, so the byte bound is what binds.
	budget := 4*captureBytes + 10
	tr := NewTracerSized(16, budget)
	for i := 0; i < 12; i++ {
		endAfter(tr, tr.Begin(nil, uint64(i)), time.Duration(i+1)*time.Millisecond, false)
	}
	if got := tr.bytes; got > budget {
		t.Fatalf("retained %d bytes, budget %d", got, budget)
	}
	slow := tr.Slow()
	if len(slow) == 0 || len(slow) > 4 {
		t.Fatalf("retained %d captures, want 1..4 under byte budget", len(slow))
	}
	// The byte bound evicts cheapest-first, so the slowest must survive.
	if slow[0].ID != 11 {
		t.Fatalf("slowest capture (id 11) evicted; got id %d", slow[0].ID)
	}
	// Large tags count against the budget.
	tc := tr.Begin(nil, 100)
	tc.Tag = strings.Repeat("x", int(budget))
	endAfter(tr, tc, time.Hour, false) // slowest ever: must be admitted
	if got := len(tr.Slow()); got != 1 {
		t.Fatalf("oversized-tag capture should have evicted the rest, ring has %d", got)
	}
	tr.Reset()
	if tr.bytes != 0 {
		t.Fatal("Reset must zero the byte accounting")
	}
}

func TestTracerSamplerGate(t *testing.T) {
	o := NewWith(Config{Sampling: SamplingConfig{Budget: 0.01}})
	o.Sampler.mod.Store(5)
	traced := 0
	for i := 0; i < 500; i++ {
		if tc := o.Tracer.Begin(nil, uint64(i)); tc != nil {
			traced++
			o.Tracer.End(tc, false)
		}
	}
	if traced < 90 || traced > 110 {
		t.Fatalf("traced %d of 500 at modulus 5, want ~100", traced)
	}
}
