package main

// The load generator. Every phase is either open (a Poisson schedule
// drawn from the seed; latency is timed from each arrival's due time)
// or closed (every stream back to back). Streams — wire connections or
// in-process terminals — share one schedule through an atomic cursor:
// a stream claims the next arrival, waits until it is due, and issues
// it. When every stream is busy the next arrival is simply claimed
// late, so the wait a stall imposes on later arrivals is counted.

import (
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// rnd is a splitmix64 stream. Each arrival gets its own, derived from
// (seed, phase, sequence), so its inputs do not depend on which stream
// happens to claim it.
type rnd struct{ s uint64 }

func newRnd(seed int64, phase int, seq int64) rnd {
	r := rnd{uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(phase+1)*0xD1B54A32D192ED03 ^ uint64(seq)*0x8CB92BA72F3D8DD7}
	r.u64()
	return r
}

func (r *rnd) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rnd) float() float64 { return float64(r.u64()>>11) / (1 << 53) }
func (r *rnd) intn(n int) int { return int(r.u64() % uint64(n)) }

// poissonSchedule is the due times (ns since phase start, ascending)
// of a Poisson process of the given rate over dur — a pure function of
// its arguments.
func poissonSchedule(seed int64, phase int, rate float64, dur time.Duration) []int64 {
	r := newRnd(seed, phase, -1)
	due := make([]int64, 0, int(rate*dur.Seconds()*1.05)+16)
	t := 0.0
	for {
		t += -math.Log(1-r.float()) / rate
		ns := int64(t * 1e9)
		if ns >= int64(dur) {
			return due
		}
		due = append(due, ns)
	}
}

// zipf draws ranks in [0, n) with skew theta from a uniform variate
// (Gray et al., the YCSB generator). Rank 0 is the most popular.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(k int) float64 {
		s := 0.0
		for i := 1; i <= k; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return min(int(z.n*math.Pow(z.eta*u-z.eta+1, z.alpha)), int(z.n)-1)
}

// stream is one unit of client concurrency: a wire connection or an
// in-process terminal.
type stream interface {
	// begin and drain bracket a phase. drain returns once everything
	// issued has completed.
	begin(p *phase)
	drain()
	// issue runs arrival seq. A synchronous stream completes it before
	// returning; a pipelining stream may complete it later, before
	// drain returns. Either reports through p.start and p.finish.
	issue(p *phase, seq int64)
	// idle tells a pipelining stream that nothing more is due for now.
	idle()
	setTrace(tl *spanLog)
}

// rec is what an open phase records per arrival, in units of 100 ns
// from the arrival's due time (eight bytes per arrival keep a
// million-arrival phase out of the garbage collector's way). Both
// fields hold the duration plus one, so zero means "never".
type rec struct {
	lag uint32 // due → issue; the top bit says the claiming stream was idle at the due time
	lat uint32 // due → completion, or failedLat
}

const (
	waitedBit = 1 << 31
	failedLat = 1<<32 - 1
)

func ticks(ns int64) uint32 { return uint32(min(max(ns/100, 0)+1, failedLat-1)) }

// grace is how long after its scheduled end an open phase keeps
// issuing overdue arrivals; what is still unissued then has missed its
// deadline and counts as failed.
const grace = 2 * time.Second

type phase struct {
	name  string
	idx   int           // position in the run, part of every arrival's rnd
	dur   time.Duration // closed phases with a limit ignore it
	rate  float64       // offered txn/s; 0 = closed
	limit int64         // closed only: stop after this many arrivals (the warm-up)

	t0      time.Time
	elapsed time.Duration
	cpuNs   int64 // process CPU (user+sys) over the phase
	due     []int64
	recs    []rec
	next    atomic.Int64
	pace    sync.Mutex // held by the stream that is waiting for the next due time
	timer   *hrTimer

	done, failed, retries atomic.Int64

	// traced phases only
	devs *devLog
	logs []*spanLog
}

func (p *phase) open() bool { return p.rate > 0 }

func (p *phase) now() int64 { return int64(time.Since(p.t0)) }

func (p *phase) dueNs(seq int64) int64 {
	if p.due == nil {
		return p.now()
	}
	return p.due[seq]
}

// start marks arrival seq as issued and returns the time, in ns since
// the phase began.
func (p *phase) start(seq int64) int64 {
	now := p.now()
	if p.recs != nil {
		p.recs[seq].lag |= ticks(now-p.due[seq]) &^ waitedBit
	}
	return now
}

func (p *phase) finish(seq int64, ok bool, retries int) {
	if p.recs != nil {
		p.recs[seq].lat = failedLat
		if ok {
			p.recs[seq].lat = ticks(p.now() - p.due[seq])
		}
	}
	if ok {
		p.done.Add(1)
	} else {
		p.failed.Add(1)
	}
	if retries > 0 {
		p.retries.Add(int64(retries))
	}
}

// run drives the phase over the streams and returns when all of it has
// completed.
func (p *phase) run(seed int64, streams []stream) {
	if p.open() {
		p.due = poissonSchedule(seed, p.idx, p.rate, p.dur)
		p.recs = make([]rec, len(p.due))
		p.timer = newHRTimer()
		defer p.timer.close()
	}
	cpu0 := cpuNow()
	p.t0 = time.Now()
	if p.devs != nil {
		p.devs.t0 = p.t0
		p.logs = make([]*spanLog, len(streams))
	}
	var wg sync.WaitGroup
	for si, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.devs != nil {
				p.logs[si] = newSpanLog(p.t0)
				s.setTrace(p.logs[si])
				p.devs.register(p.logs[si])
				defer p.devs.unregister()
				defer s.setTrace(nil)
			}
			s.begin(p)
			p.loop(s)
			s.drain()
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(p.t0)
	p.cpuNs = cpuNow() - cpu0
}

func (p *phase) loop(s stream) {
	for {
		var seq int64
		if p.open() {
			if seq = p.claim(s); seq < 0 {
				return
			}
		} else {
			seq = p.next.Add(1) - 1
			if p.limit > 0 && seq >= p.limit || p.limit == 0 && time.Since(p.t0) >= p.dur {
				return
			}
		}
		s.issue(p, seq)
	}
}

// claim hands the calling stream the next arrival of an open phase
// once it is due, or -1 when the phase is over. Whoever holds pace is
// the pacer for the moment: it alone sleeps until the next due time,
// the other free streams queue behind it, and busy streams are not in
// here at all — so arrivals are issued in due order by whichever stream
// is free, and wait unclaimed when none is.
func (p *phase) claim(s stream) int64 {
	p.pace.Lock()
	defer p.pace.Unlock()
	seq := p.next.Load()
	if seq >= int64(len(p.due)) {
		return -1
	}
	late := time.Since(p.t0) - time.Duration(p.due[seq])
	if late < 0 {
		s.idle()
		p.timer.sleep(-late)
		p.recs[seq].lag = waitedBit
	} else if late > p.dur-time.Duration(p.due[seq])+grace {
		return -1 // past the deadline: this and every later arrival stay unissued
	}
	p.next.Store(seq + 1)
	return seq
}

// hrTimer sleeps on a timerfd read through the runtime's poller. A Go
// timer is only serviced every millisecond while the process is
// otherwise idle, and a sleeping system call would keep its processor
// from the system under test; a timerfd wakes the goroutine when the
// kernel's high-resolution timer fires and holds nothing meanwhile.
// The generator must not be the coarsest clock in the run.
type hrTimer struct {
	fd uintptr
	f  *os.File
}

func newHRTimer() *hrTimer {
	const clockMonotonic, nonblockCloexec = 1, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return &hrTimer{} // no timerfd here: sleep falls back to the Go timer
	}
	return &hrTimer{fd: fd, f: os.NewFile(fd, "timerfd")}
}

func (t *hrTimer) sleep(d time.Duration) {
	if t.f != nil {
		// struct itimerspec{it_interval, it_value}: one shot after d.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		var expirations [8]byte
		if errno == 0 {
			if _, err := t.f.Read(expirations[:]); err == nil {
				return
			}
		}
	}
	time.Sleep(d)
}

func (t *hrTimer) close() {
	if t.f != nil {
		t.f.Close()
	}
}

// openStats summarises an open phase; summarise also releases the
// phase's per-arrival records.
type openStats struct {
	arrivals   int     // scheduled
	ok, failed int     // failed includes arrivals never issued
	achieved   float64 // ok completions per second of scheduled duration
	backlogMid int     // arrivals due but unissued at mid-phase
	backlogEnd int     // and at the scheduled end

	// latencies (ms, due → completion) of the ok arrivals
	mean, p50, p99 float64
	// medians, over the phase's spans (see spans), of each span's own
	// p99 and standard deviation
	p99Sliced, stdSliced float64
	// the same median of p99s with every failed arrival counted as
	// infinitely late: what the SLO ladder holds against the limit
	p99WithFailed float64
	// generator lateness (ms, due → issue) where the stream was idle
	lagP50, lagP99 float64
}

// spans is how many equal spans of time a phase of n arrivals is cut
// into for its tail and spread statistics: as many as leave each at
// least 800 arrivals (eight beyond its p99), an odd number so that the
// median is one of them, at most 11. The median across spans is what is
// reported, so that one stall — a deadlock cycle, a device tail, a busy
// neighbour on the host — in one span does not decide the run's number.
func spans(n int) int {
	k := min(max(n/800, 1), 11)
	return k - (k+1)%2
}

func (p *phase) summarise() openStats {
	st := openStats{arrivals: len(p.recs)}
	mid, end := int64(p.dur)/2, int64(p.dur)
	lat := make([]float64, 0, len(p.recs))
	var lag []float64
	k := spans(len(p.recs))
	slices := make([][]float64, k)
	failedIn := make([]int, k)
	for i, r := range p.recs {
		due := p.due[i]
		issued := r.lag&^waitedBit != 0
		start := due + int64(r.lag&^waitedBit-1)*100
		if due <= mid && (!issued || start > mid) {
			st.backlogMid++
		}
		if !issued || start > end {
			st.backlogEnd++
		}
		sl := min(int(due*int64(k)/end), k-1)
		if !issued || r.lat == 0 || r.lat == failedLat {
			st.failed++
			failedIn[sl]++
			continue
		}
		l := float64(r.lat-1) / 1e4
		lat = append(lat, l)
		slices[sl] = append(slices[sl], l)
		if r.lag&waitedBit != 0 {
			lag = append(lag, float64(r.lag&^waitedBit-1)/1e4)
		}
	}
	p.recs, p.due = nil, nil

	st.ok = len(lat)
	st.achieved = float64(st.ok) / p.dur.Seconds()
	st.mean, _ = meanStd(lat)
	sort.Float64s(lat)
	st.p50, st.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	var p99s, stds, p99sWithFailed []float64
	for i, sl := range slices {
		_, sd := meanStd(sl)
		sort.Float64s(sl)
		p99s, stds = append(p99s, quantile(sl, 0.99)), append(stds, sd)
		for f := 0; f < failedIn[i]; f++ {
			sl = append(sl, math.Inf(1))
		}
		p99sWithFailed = append(p99sWithFailed, quantile(sl, 0.99))
	}
	st.p99Sliced, st.stdSliced, st.p99WithFailed = median(p99s), median(stds), median(p99sWithFailed)
	sort.Float64s(lag)
	st.lagP50, st.lagP99 = quantile(lag, 0.5), quantile(lag, 0.99)
	return st
}

// rung is one fixed offered rate of the SLO ladder.
type rung struct {
	offered, achieved float64
	arrivals          int
	p99Ms             float64 // openStats.p99WithFailed
	failFrac          float64
	backlogMid        int
	backlogEnd        int
}

func (st openStats) rung(offered float64) rung {
	n := float64(max(st.arrivals, 1))
	return rung{
		offered: offered, achieved: st.achieved, arrivals: st.arrivals,
		p99Ms: st.p99WithFailed, failFrac: float64(st.failed) / n,
		backlogMid: st.backlogMid, backlogEnd: st.backlogEnd,
	}
}

// meets reports whether the rate was sustained within the limit: the
// p99 (a failed arrival counting as infinitely late) is within it, at
// most 1% failed, and the backlog was not growing — at the end it is
// no larger than at mid-phase, give or take the few arrivals that are
// always in the act of being claimed.
func (r rung) meets(limitMs float64) bool {
	slack := math.Max(8, 0.01*float64(r.arrivals))
	return r.p99Ms <= limitMs && r.failFrac <= 0.01 &&
		float64(r.backlogEnd) <= float64(r.backlogMid)+slack
}

// sloRate is the throughput achieved at the highest offered rate that
// meets the limit, 0 if none does.
func sloRate(rungs []rung, limitMs float64) float64 {
	best := rung{}
	for _, r := range rungs {
		if r.meets(limitMs) && r.offered > best.offered {
			best = r
		}
	}
	return best.achieved
}
