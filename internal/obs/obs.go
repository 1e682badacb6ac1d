// Package obs is the engine's live observability layer: a sharded
// metrics registry (counters, gauges, log-bucket latency histograms),
// a tracer that samples transactions into their span capture and keeps
// a bounded slow-transaction ring, and an HTTP exposition endpoint (Prometheus text /metrics plus JSON
// /debug routes).
//
// The paper's methodology is "measure variance first, then fix it"
// (§3, TProfiler); this package makes the running engine measurable
// without stopping it. Design constraints, in order:
//
//  1. A disabled registry must cost ~one atomic load per metric call,
//     and a nil metric handle only a nil check, so instrumentation can
//     stay compiled into every hot path (lock waits, buffer hits, WAL
//     flushes) unconditionally.
//  2. Counters and histogram buckets are sharded to avoid cache-line
//     ping-pong between cores; histogram mean/variance is Welford-backed
//     per shard and merged on read (stats.Welford.Merge).
//  3. A transaction is captured once, in tprofiler's call tree; the
//     live variance engine folds that capture's factor leaves, so live
//     and offline attribution read the same spans.
//
// Everything hangs off an Obs bundle. The package-level Default bundle
// is disabled until something (the -obs CLI flag, a test) enables it;
// the engine wires Default into every layer when no explicit bundle is
// configured, which is how "every experiment can export live metrics"
// works without threading a handle through each construction site.
package obs

import "sync/atomic"

// Obs bundles the collection surfaces: the metrics registry, the
// transaction tracer, the online variance-attribution engine with its
// SLO watchdog, and the overhead-budgeted sampling controller. A nil
// *Obs is valid everywhere and collects nothing.
type Obs struct {
	Registry *Registry
	Tracer   *Tracer
	// Variance is the always-on variance-attribution engine fed by
	// every committed, sampled transaction's factor totals.
	Variance *VarianceEngine
	// Watchdog evaluates each closed variance window against SLO
	// targets and retains ranked anomalies.
	Watchdog *Watchdog
	// Sampler duty-cycles span capture to keep instrumentation
	// overhead inside its budget; counting always stays on.
	Sampler *Sampler
}

// Config sizes an Obs bundle; the zero value gets the defaults New
// uses.
type Config struct {
	// Variance configures the attribution engine's windows.
	Variance VarianceConfig
	// SLO sets the watchdog targets.
	SLO SLOConfig
	// Sampling sets the span-capture overhead budget.
	Sampling SamplingConfig
}

// New returns an enabled Obs bundle with default sizing.
func New() *Obs { return NewWith(Config{}) }

// NewWith returns an enabled Obs bundle with explicit sizing, wiring
// the tracer into the variance engine and sampler, and the variance
// engine's window rotation into the watchdog.
func NewWith(cfg Config) *Obs {
	o := &Obs{
		Registry: NewRegistry(),
		Tracer:   NewTracerSized(0, 0),
		Variance: NewVarianceEngine(cfg.Variance),
		Watchdog: NewWatchdog(cfg.SLO, 0),
		Sampler:  NewSampler(cfg.Sampling),
	}
	o.Variance.onRotate = o.Watchdog.Observe
	o.Tracer.variance = o.Variance
	o.Tracer.sampler = o.Sampler
	return o
}

// Default is the process-wide bundle, disabled until SetEnabled(true).
// Engines fall back to it when no explicit bundle is configured, so
// flipping it on makes every running engine observable at once.
var Default = func() *Obs {
	o := New()
	o.SetEnabled(false)
	return o
}()

// OrDefault returns o, or Default when o is nil.
func OrDefault(o *Obs) *Obs {
	if o == nil {
		return Default
	}
	return o
}

// SetEnabled flips collection for the registry, the tracer and the
// variance engine together.
func (o *Obs) SetEnabled(on bool) {
	if o == nil {
		return
	}
	o.Registry.SetEnabled(on)
	o.Tracer.SetEnabled(on)
	o.Variance.SetEnabled(on)
}

// Enabled reports whether the registry is collecting.
func (o *Obs) Enabled() bool {
	return o != nil && o.Registry.Enabled()
}

// enabledFlag is the shared on/off switch metric handles consult; one
// atomic load per metric operation when disabled.
type enabledFlag = atomic.Bool
