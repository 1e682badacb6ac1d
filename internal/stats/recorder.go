package stats

import (
	"sync"
	"time"
)

// Recorder is a concurrency-safe collector of latency observations. The
// experiment harness gives one Recorder to all worker goroutines; at the
// end of a run the recorder produces a Summary.
//
// The default (exact) mode keeps every observation, which experiments
// want for faithful quantiles. For long-lived serving — millions of
// transactions — use NewReservoirRecorder, which bounds memory with
// uniform reservoir sampling.
type Recorder struct {
	mu  sync.Mutex
	obs []float64
	k   int    // reservoir capacity; 0 = exact mode
	n   int64  // total observations seen (≥ len(obs) in reservoir mode)
	rng uint64 // xorshift64* state for reservoir replacement
}

// NewRecorder returns an exact-mode Recorder with capacity preallocated
// for n observations.
func NewRecorder(n int) *Recorder {
	return &Recorder{obs: make([]float64, 0, n)}
}

// NewReservoirRecorder returns a Recorder that retains a uniform sample
// of at most k observations (Vitter's Algorithm R), so memory stays
// bounded no matter how long the run. k <= 0 falls back to exact mode.
func NewReservoirRecorder(k int) *Recorder {
	if k <= 0 {
		return NewRecorder(0)
	}
	return &Recorder{obs: make([]float64, 0, k), k: k, rng: 0x9E3779B97F4A7C15}
}

// Record adds a single latency observation.
func (r *Recorder) Record(d time.Duration) {
	r.RecordValue(float64(d) / float64(time.Millisecond))
}

// RecordValue adds a raw float observation (already in the caller's unit).
func (r *Recorder) RecordValue(v float64) {
	r.mu.Lock()
	r.n++
	if r.k == 0 || len(r.obs) < r.k {
		r.obs = append(r.obs, v)
	} else {
		// Keep the new value with probability k/n by overwriting a
		// uniformly random slot in [0, n).
		if j := int(r.nextLocked() % uint64(r.n)); j < r.k {
			r.obs[j] = v
		}
	}
	r.mu.Unlock()
}

// nextLocked steps the xorshift64* generator; caller holds r.mu.
func (r *Recorder) nextLocked() uint64 {
	x := r.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Len returns the number of retained observations (in reservoir mode,
// at most the reservoir size; see N for the total seen).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.obs)
}

// N returns the total number of observations seen, including those the
// reservoir sampled away.
func (r *Recorder) N() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns a copy of the observations recorded so far.
func (r *Recorder) Snapshot() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(r.obs))
	copy(out, r.obs)
	return out
}

// Summary summarizes everything recorded so far.
func (r *Recorder) Summary() Summary {
	return Summarize(r.Snapshot())
}

// Reset discards all observations.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.obs = r.obs[:0]
	r.n = 0
	r.mu.Unlock()
}
