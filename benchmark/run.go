package main

// One run of one workload: set-up (timed, repeated for a steady
// median), the fixed sequence of phases, the audit, and the metrics
// derived from them.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// The run's measured time (-seconds) is split over the four untraced
// phases in these shares; a traced run adds one more phase of
// tracedShare at r2's rate.
const (
	r1Share     = 0.10
	r2Share     = 0.55
	closedShare = 0.25
	r3Share     = 0.10
	tracedShare = 0.25

	// setups is how often an untraced run sets the system up; setup_s
	// is the median, the last instance takes the load.
	setups = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports; marshalled, it is the line the
// driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	def     workloadDef
	seed    int64
	seconds float64
	traced  bool
	smoke   bool   // one set-up, no generator-bound verdict: only audits and metric names matter
	outDir  string // trace files and scratch
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}

func runOne(cfg runConfig) (result, error) {
	def := cfg.def
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: cfg.seed, tmpDir: tmp}

	// Set-up, up to the first timed arrival: open, load, connect, warm.
	n := setups
	if cfg.traced || cfg.smoke {
		n = 1
	}
	var in *instance
	var setupS []float64
	for k := 0; k < n; k++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		in, err = def.setup(e)
		if err != nil {
			if in != nil {
				in.close()
			}
			return result{}, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		warm := &phase{name: "warm", idx: 0, limit: def.warmTxns}
		warm.run(cfg.seed, in.streams)
		setupS = append(setupS, time.Since(start).Seconds())
		if f := warm.failed.Load(); f > 0 {
			in.close()
			return result{}, fmt.Errorf("%s: %d of %d warm-up transactions failed", def.name, f, def.warmTxns)
		}
	}
	defer in.close()

	r1 := &phase{name: "r1", idx: 1, rate: def.rates[0], dur: share(cfg.seconds, r1Share)}
	r2 := &phase{name: "r2", idx: 2, rate: def.rates[1], dur: share(cfg.seconds, r2Share)}
	shut := &phase{name: "closed", idx: 3, dur: share(cfg.seconds, closedShare)}
	r3 := &phase{name: "r3", idx: 4, rate: def.rates[2], dur: share(cfg.seconds, r3Share)}

	r1.run(cfg.seed, in.streams)
	s1 := r1.summarise()
	r2.run(cfg.seed, in.streams)
	s2 := r2.summarise()
	shut.run(cfg.seed, in.streams)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r3.run(cfg.seed, in.streams)
	s3 := r3.summarise()

	res := result{Metrics: map[string]metric{}}
	// r3 offers more than the seed could carry, on purpose; its misses
	// are the ladder's business, not failures of the run.
	res.Attempted = int64(s1.arrivals+s2.arrivals) + shut.done.Load() + shut.failed.Load()
	res.Failed = int64(s1.failed+s2.failed) + shut.failed.Load()
	rungs := []rung{s1.rung(def.rates[0]), s2.rung(def.rates[1]), s3.rung(def.rates[2])}

	var tr *tracedRun
	if cfg.traced {
		tr = runTraced(cfg, in, r2.rate)
	}
	if !cfg.smoke {
		// Before any number is reported: are they the system's numbers?
		if err := generatorBound(s2); err != nil {
			return result{}, fmt.Errorf("%s: %w", def.name, err)
		}
	}
	auditErr := in.audit()
	res.Correct = auditErr == nil

	if !cfg.traced {
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["slo_rate_tps"] = metric{sloRate(rungs, def.p99LimitMs), "txn/s"}
		res.Metrics["peak_tps"] = metric{float64(shut.done.Load()) / shut.elapsed.Seconds(), "txn/s"}
		res.Metrics["mem_mb"] = metric{float64(mem.HeapInuse) / (1 << 20), "MiB"}
	} else {
		perLayer(res.Metrics, in, tr, layerInputs{
			s1: s1, s2: s2, s3: s3, r2: r2, shut: shut,
			retries: r1.retries.Load() + r2.retries.Load() + shut.retries.Load(),
			failed:  res.Failed, attempted: res.Attempted,
		})
	}
	debug.FreeOSMemory()
	if auditErr != nil {
		return res, fmt.Errorf("%s: audit: %w", def.name, auditErr)
	}
	return res, nil
}

// generatorBound reports a run whose latencies are the generator's
// rather than the system's. Latency is timed from the due time, so it
// contains however late the generator issued the arrival; that
// lateness, measured where the stream was idle at the due time, must
// stay under a quarter of the latency, at the median and at p99.
func generatorBound(st openStats) error {
	if st.lagP50 > 0.25*st.p50 || st.lagP99 > 0.25*st.p99Sliced {
		return fmt.Errorf("generator-bound: idle streams issued arrivals %.3f ms late at the median and %.3f ms at p99, against latencies of %.3f ms and %.3f ms",
			st.lagP50, st.lagP99, st.p50, st.p99Sliced)
	}
	return nil
}

// tracedRun is what the traced phase leaves behind.
type tracedRun struct {
	p       *phase
	stats   openStats
	delta   counters // layer Stats() over the phase
	gauges  counters // read at its end
	spans   []span
	selfNs  map[string]float64
	frames  [][]byte // wire frames that crossed during the phase
	mallocs uint64
	gcPause time.Duration
	pingUs  float64
	clients clientCounts // what the clients did during the phase

	// the obs sensor's reading, taken as the phase ends
	shares                 map[string]float64
	residual, factorMeanMs float64
	sampled                int64
}

// runTraced repeats r2 with tracing on: the system's obs sensor, the
// benchmark's spans around its own calls, and the device spans.
func runTraced(cfg runConfig, in *instance, rate float64) *tracedRun {
	p := &phase{name: "traced", idx: 5, rate: rate, dur: share(cfg.seconds, tracedShare), devs: &devLog{}}
	tr := &tracedRun{p: p}
	for _, c := range in.wire {
		c.keepFrames(512)
	}
	clients0 := in.clientCounts()
	in.sut.log.queueMax.Store(0)
	in.sut.data.queueMax.Store(0)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := in.sut.counters()
	in.sut.setTracing(p.devs)

	p.run(cfg.seed, in.streams)

	in.sut.setTracing(nil)
	tr.shares, tr.residual, tr.factorMeanMs, tr.sampled = in.sut.variance()
	tr.delta = in.sut.counters().sub(c0)
	tr.gauges = in.sut.gauges()
	runtime.ReadMemStats(&m1)
	tr.mallocs = m1.Mallocs - m0.Mallocs
	tr.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	tr.clients = in.clientCounts().sub(clients0)
	for _, c := range in.wire {
		tr.frames = append(tr.frames, c.keepFrames(0)...)
	}
	tr.stats = p.summarise()
	tr.spans = mergeSpans(p.name, int64(p.elapsed), p.logs, p.devs)
	tr.selfNs, _ = selfTimes(tr.spans)
	if in.ctl != nil {
		tr.pingUs = pingRTT(in.ctl)
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.def.name+".json")
	if err := writeTrace(path, cfg.def.name, cfg.seed, tr.spans); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: trace file:", err)
	}
	return tr
}

// clientCounts is the running totals of what the clients have done.
type clientCounts struct {
	userBytes, snapReads, scans, scanRows int64
	frames, wireBytes                     int64 // both directions
}

func (in *instance) clientCounts() clientCounts {
	c := clientCounts{
		userBytes: in.userBytes.Load(), snapReads: in.snapReads.Load(),
		scans: in.scans.Load(), scanRows: in.scanRows.Load(),
	}
	for _, w := range in.wire {
		c.frames += w.framesOut + w.framesIn
		c.wireBytes += w.bytesOut + w.bytesIn
	}
	return c
}

func (a clientCounts) sub(b clientCounts) clientCounts {
	return clientCounts{
		a.userBytes - b.userBytes, a.snapReads - b.snapReads, a.scans - b.scans, a.scanRows - b.scanRows,
		a.frames - b.frames, a.wireBytes - b.wireBytes,
	}
}

// pingRTT is the median round trip of an empty OpPing on an otherwise
// idle system: the wire's floor, with no engine behind it.
func pingRTT(c *wireConn) float64 {
	var us []float64
	for i := 0; i < 300; i++ {
		start := time.Now()
		c.put(0, opPing, nil)
		if c.flush() != nil {
			return 0
		}
		if _, _, err := c.next(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return median(us)
}
