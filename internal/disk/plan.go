package disk

import (
	"errors"
	"sync/atomic"
	"time"
)

// Errors surfaced by fault-capable devices.
var (
	// ErrIO is a transient injected I/O error: the operation had no
	// effect and may be retried.
	ErrIO = errors.New("disk: injected I/O error")
	// ErrCrashed means the plan's crash point has been reached; the
	// device refuses all further operations.
	ErrCrashed = errors.New("disk: device crashed")
)

// FaultConfig sets a plan's fault mix. All probabilities are per
// operation in [0, 1]; the zero value is a benign plan (no faults, no
// crash).
type FaultConfig struct {
	// IOErrorP is the probability that a write or fsync fails with a
	// transient ErrIO (the op has no effect).
	IOErrorP float64
	// DropFsyncP is the probability that an fsync reports success
	// without persisting anything — a lying device. The dropped bytes
	// persist at the next honest fsync, so this models a deferred
	// flush, and the harness forgives acknowledged commits lost this
	// way (they are reported as at-risk instead).
	DropFsyncP float64
	// StallP is the probability that an operation stalls for StallDur
	// before completing (a device-cache hiccup). Stalls perturb timing
	// only, never correctness.
	StallP   float64
	StallDur time.Duration
	// CrashOp, when > 0, crashes the machine at the CrashOp-th
	// operation (1-based, counted across every device sharing the
	// plan). The crashing op applies torn-write semantics: a seeded
	// prefix of its payload takes effect before the crash.
	CrashOp int64
	// CrashTorn overrides the torn fraction of the crashing op when in
	// [0, 1]; a negative value (the default for NewPlan callers that
	// leave it zero must set -1 explicitly) draws it from the seed.
	CrashTorn float64
}

// outcome is the fault decision for one operation.
type outcome struct {
	// op is the 1-based machine-wide operation index.
	op int64
	// ioErr: fail the op with ErrIO (no effect).
	ioErr bool
	// dropFsync: report fsync success without persisting.
	dropFsync bool
	// stall delays the op by this much before it proceeds.
	stall time.Duration
	// crash: this op is the crash point; torn in [0,1] is the fraction
	// of its payload that takes effect before the machine dies.
	crash bool
	torn  float64
}

// opKind classifies device operations for the plan.
type opKind int

const (
	opWrite opKind = iota
	opFsync
)

// Plan is the deterministic fault model behind the crash &
// fault-injection torture harness. It is fully determined by a single
// int64 seed: the outcome of the k-th device operation — whether it
// suffers a transient I/O error, a silently dropped fsync, a stall, or
// the machine-wide crash point (with a seeded torn-write fraction) — is
// a pure function of (seed, k). Replaying the same seed therefore
// replays a byte-identical fault schedule, which is what makes every
// torture failure a one-line repro command.
//
// A Plan models one machine: all log devices of an engine share it, so
// the crash point is keyed by the machine-wide operation count and a
// crash stops every device at once, exactly like pulling the plug.
// Safe for concurrent use by multiple devices.
type Plan struct {
	seed    int64
	cfg     FaultConfig
	ops     atomic.Int64
	crashed atomic.Bool
}

// NewPlan builds a plan for seed. The same (seed, cfg) always produces
// the same outcome for the same operation index.
func NewPlan(seed int64, cfg FaultConfig) *Plan {
	return &Plan{seed: seed, cfg: cfg}
}

// Ops returns how many operations have consumed an outcome so far.
func (p *Plan) Ops() int64 { return p.ops.Load() }

// Crashed reports whether the crash point has been reached.
func (p *Plan) Crashed() bool { return p.crashed.Load() }

// next consumes the next operation slot and returns its outcome. Once
// the crash point fires every later call returns a dead outcome
// (crash=true, torn=0): the machine is off.
func (p *Plan) next(kind opKind) outcome {
	if p.crashed.Load() {
		return outcome{op: p.ops.Load(), crash: true}
	}
	i := p.ops.Add(1)
	o := p.at(i, kind)
	if o.crash {
		p.crashed.Store(true)
	}
	return o
}

// at returns the outcome of operation i (1-based) of the given kind as
// a pure function of the plan's seed and configuration — the replayable
// schedule itself.
func (p *Plan) at(i int64, kind opKind) outcome {
	o := outcome{op: i}
	if p.cfg.CrashOp > 0 && i >= p.cfg.CrashOp {
		o.crash = true
		if p.cfg.CrashTorn >= 0 && p.cfg.CrashTorn <= 1 {
			o.torn = p.cfg.CrashTorn
		} else {
			o.torn = u01(mix(uint64(p.seed) ^ mix(uint64(i)) ^ 0x7ea2))
		}
		return o
	}
	h := mix(uint64(p.seed) ^ mix(uint64(i)))
	if u01(mix(h^0xe1)) < p.cfg.IOErrorP {
		o.ioErr = true
		return o
	}
	if kind == opFsync && u01(mix(h^0xf5)) < p.cfg.DropFsyncP {
		o.dropFsync = true
	}
	if p.cfg.StallP > 0 && u01(mix(h^0x57)) < p.cfg.StallP {
		o.stall = p.cfg.StallDur
	}
	return o
}

// ScheduleDigest hashes the outcomes of the first n operations for both
// write and fsync kinds into one 64-bit digest. Two plans with the same
// seed and config produce the same digest — the byte-identical-schedule
// check the torture harness and tests rely on.
func (p *Plan) ScheduleDigest(n int64) uint64 {
	var d uint64 = 0x9e3779b97f4a7c15
	for i := int64(1); i <= n; i++ {
		for _, k := range []opKind{opWrite, opFsync} {
			o := p.at(i, k)
			d = mix(d ^ encodeOutcome(o))
		}
	}
	return d
}

func encodeOutcome(o outcome) uint64 {
	v := uint64(o.op) << 16
	if o.ioErr {
		v |= 1
	}
	if o.dropFsync {
		v |= 2
	}
	if o.crash {
		v |= 4
	}
	if o.stall > 0 {
		v |= 8
	}
	return mix(v ^ uint64(int64(o.torn*1e9)))
}

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash that keeps outcomes independent across operation indexes.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// u01 maps a hash to a uniform float in [0, 1).
func u01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// DeriveSeed derives the seed for iteration i of a multi-crash torture
// run from the run's master seed, deterministically.
func DeriveSeed(master int64, i int) int64 {
	return int64(mix(uint64(master) ^ mix(uint64(i)+0x5eed)))
}
