// Package admit is the network front door's admission-control layer:
// a bounded ready queue feeding a fixed pool of execution slots, with
// per-class load shedding and a feedback controller that tracks a
// configured p99 queue-wait target.
//
// It is the repository's one M/G/c queue: it serves the server's front
// door and, with shedding off, the harness's VoltDB mode (the
// stored-procedure queue of figs. 6 and 7). The paper's VoltDB study (Appendix A)
// attributes 99.9% of latency variance to queueing delay; the only way
// a server can *bound* that delay under open-loop overload is to bound
// the queue. The controller therefore turns one knob — the effective
// ready-queue capacity — to hold the p99 of admitted-request queue
// wait at the target: by Little's law the wait of the request at queue
// position k is ≈ k·E[S]/c, so capping the queue caps the wait, and
// the feedback loop finds the cap that matches the target without
// anyone measuring E[S] explicitly.
//
// Shedding is class-aware: each class may only occupy a fraction of
// the effective capacity (High 1.0, Normal 0.7, Low 0.4), so as the
// controller shrinks the queue under overload, Low-class work sheds
// first and High-class work sheds only when even a High-only queue
// would violate the target. When the controller shrinks the capacity
// below the current queue length it also evicts queued low-priority
// waiters (newest first — they have invested the least wait).
package admit

import (
	"errors"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/obs"
)

// Class is an admission priority class.
type Class uint8

// Classes, highest priority first. The zero value is High so that
// un-labelled work is never accidentally sheddable before labelled
// work — a conservative default for a front door.
const (
	High Class = iota
	Normal
	Low
	NumClasses = 3
)

// String names the class.
func (c Class) String() string {
	switch c {
	case High:
		return "high"
	case Normal:
		return "normal"
	case Low:
		return "low"
	default:
		return "unknown"
	}
}

// ClassNames lists every class name, highest priority first (the
// NetMetrics shed-counter labels).
func ClassNames() []string { return []string{"high", "normal", "low"} }

// classFrac is the fraction of the effective queue capacity each class
// may occupy: an arriving request of class k is shed when the queue
// already holds ≥ frac[k]·effCap waiters.
var classFrac = [NumClasses]float64{High: 1.0, Normal: 0.7, Low: 0.4}

// Errors.
var (
	// ErrShed means the request was load-shed: the ready queue was past
	// the class's share of the controlled capacity. The client should
	// back off and retry (or route elsewhere).
	ErrShed = errors.New("admit: load shed")
	// ErrClosed means the controller is shut down.
	ErrClosed = errors.New("admit: closed")
)

// Config configures a Controller. The zero value is usable: 4 slots,
// a 256-deep queue, no p99 feedback (static capacity).
type Config struct {
	// Slots is the number of concurrent execution slots (c in M/G/c);
	// default 4.
	Slots int
	// QueueCap is the hard bound on queued (admitted-but-waiting)
	// requests; default 256. The feedback controller only ever shrinks
	// capacity below this, never grows past it.
	QueueCap int
	// TargetP99 is the queue-wait p99 the feedback controller tracks;
	// 0 disables feedback (the capacity stays at QueueCap).
	TargetP99 time.Duration
	// Window is the feedback evaluation period (default 100ms).
	Window time.Duration
	// DisableShed admits everything: the queue is unbounded and the
	// feedback controller only observes — the "uncontrolled" baseline
	// the over-capacity experiments compare against.
	DisableShed bool
	// Metrics, when non-nil, receives queue-depth/wait/shed series.
	Metrics *obs.NetMetrics
}

// waiter is one queued admission request.
type waiter struct {
	ch    chan outcome
	enq   time.Time
	class Class
	prev  *waiter
	next  *waiter
}

type outcome uint8

const (
	granted outcome = iota
	shedded
	closed
)

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan outcome, 1)} }}

// fifo is a doubly-linked FIFO of waiters: grants pop the head (oldest
// first), shed evictions pop the tail (newest first).
type fifo struct {
	head, tail *waiter
	n          int
}

func (q *fifo) push(w *waiter) {
	w.prev, w.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = w
	} else {
		q.head = w
	}
	q.tail = w
	q.n++
}

func (q *fifo) remove(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		q.head = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	} else {
		q.tail = w.prev
	}
	w.prev, w.next = nil, nil
	q.n--
}

func (q *fifo) popHead() *waiter {
	w := q.head
	if w != nil {
		q.remove(w)
	}
	return w
}

func (q *fifo) popTail() *waiter {
	w := q.tail
	if w != nil {
		q.remove(w)
	}
	return w
}

// winBuckets sizes the window histogram: bucket i holds waits in
// [2^(i-1), 2^i) microseconds, so the range spans 1µs .. ~2.3 hours.
const winBuckets = 43

// window accumulates admitted queue waits for one feedback period.
// Observations are lock-free (atomic bucket increments); the feedback
// loop swaps in a fresh window and reads the retired one at leisure.
type window struct {
	buckets [winBuckets]atomic.Int64
	n       atomic.Int64
	maxNs   atomic.Int64
}

func (w *window) observe(d time.Duration) {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us) // 0 for 0, Len64(us) = floor(log2)+1
	if i >= winBuckets {
		i = winBuckets - 1
	}
	w.buckets[i].Add(1)
	w.n.Add(1)
	for {
		cur := w.maxNs.Load()
		if int64(d) <= cur || w.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// p99 estimates the window's 0.99 queue-wait quantile with the
// histogram snapshot's interpolation (bucket i's upper bound is 2^i µs),
// clamped to the observed maximum.
func (w *window) p99() time.Duration {
	s := obs.HistSnapshot{Bounds: make([]float64, winBuckets), Buckets: make([]int64, winBuckets),
		N: w.n.Load(), Max: float64(w.maxNs.Load())}
	for i := range s.Buckets {
		s.Bounds[i] = math.Ldexp(float64(time.Microsecond), i)
		s.Buckets[i] = w.buckets[i].Load()
	}
	return time.Duration(s.Quantile(0.99))
}

// Controller is a running admission controller.
type Controller struct {
	cfg Config
	met *obs.NetMetrics

	mu      sync.Mutex
	slots   int // free execution slots
	queues  [NumClasses]fifo
	waiting int
	done    bool

	// effCap is the feedback-controlled queue capacity (≤ cfg.QueueCap).
	// Read on the Admit fast path without the mutex.
	effCap atomic.Int64

	// cur is the active measurement window; the feedback loop rotates it.
	cur atomic.Pointer[window]

	// lastP99 is the most recent closed window's p99 (ns), for Stats.
	lastP99 atomic.Int64

	admitted atomic.Int64
	shedN    [NumClasses]atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

// New starts a controller.
func New(cfg Config) *Controller {
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	if cfg.Window <= 0 {
		cfg.Window = 100 * time.Millisecond
	}
	c := &Controller{cfg: cfg, met: cfg.Metrics, slots: cfg.Slots, stop: make(chan struct{})}
	c.effCap.Store(int64(cfg.QueueCap))
	c.met.SetCapacity(int64(cfg.QueueCap))
	c.cur.Store(&window{})
	if cfg.TargetP99 > 0 && !cfg.DisableShed {
		c.wg.Add(1)
		go c.feedbackLoop()
	}
	return c
}

// Admit blocks until an execution slot is granted or the request is
// shed, returning the time spent in the ready queue. A nil error means
// the caller holds a slot and must call Release when its request
// finishes executing.
func (c *Controller) Admit(class Class) (time.Duration, error) {
	if class >= NumClasses {
		class = Low
	}
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	// Fast path: a free slot and an empty queue. (With waiters present
	// a new arrival must queue behind them, or the queue would starve.)
	if c.slots > 0 && c.waiting == 0 {
		c.slots--
		c.mu.Unlock()
		c.admitted.Add(1)
		c.met.Admitted(0)
		c.cur.Load().observe(0)
		return 0, nil
	}
	// Shed decision: the class may only occupy its fraction of the
	// controlled capacity.
	if !c.cfg.DisableShed {
		allowed := int(classFrac[class] * float64(c.effCap.Load()))
		if allowed < 1 {
			allowed = 1
		}
		if c.waiting >= allowed {
			c.mu.Unlock()
			c.shedN[class].Add(1)
			c.met.Shed(class.String(), 0)
			return 0, ErrShed
		}
	}
	w := waiterPool.Get().(*waiter)
	w.enq = time.Now()
	w.class = class
	c.queues[class].push(w)
	c.waiting++
	c.mu.Unlock()
	c.met.Enqueued()

	out := <-w.ch
	wait := time.Since(w.enq)
	waiterPool.Put(w)
	c.met.Dequeued()
	switch out {
	case granted:
		c.admitted.Add(1)
		c.met.Admitted(wait)
		c.cur.Load().observe(wait)
		return wait, nil
	case shedded:
		c.shedN[class].Add(1)
		c.met.Shed(class.String(), wait)
		return wait, ErrShed
	default:
		return wait, ErrClosed
	}
}

// Release returns an execution slot, handing it to the oldest waiter
// of the highest-priority non-empty class if any.
func (c *Controller) Release() {
	c.mu.Lock()
	w := c.popNextLocked()
	if w == nil {
		if c.slots < c.cfg.Slots {
			c.slots++
		}
		c.mu.Unlock()
		return
	}
	c.waiting--
	c.mu.Unlock()
	w.ch <- granted
}

// popNextLocked removes the next waiter to grant: FIFO within class,
// highest class first.
func (c *Controller) popNextLocked() *waiter {
	for cl := 0; cl < NumClasses; cl++ {
		if w := c.queues[cl].popHead(); w != nil {
			return w
		}
	}
	return nil
}

// feedbackLoop closes one measurement window per period and adjusts
// the effective queue capacity to track the p99 target: multiplicative
// decrease when the closed window's p99 overshoots, additive increase
// when it sits comfortably below — AIMD, so the capacity converges to
// the largest queue the service rate can drain inside the target.
func (c *Controller) feedbackLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.Window)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			old := c.cur.Swap(&window{})
			p99 := old.p99()
			if old.n.Load() > 0 {
				c.lastP99.Store(int64(p99))
			}
			cap := c.effCap.Load()
			switch {
			case old.n.Load() >= 4 && p99 > c.cfg.TargetP99:
				cap /= 2
				if cap < 2 {
					cap = 2
				}
			case p99 < c.cfg.TargetP99*3/5:
				step := int64(c.cfg.QueueCap / 64)
				if step < 1 {
					step = 1
				}
				cap += step
				if cap > int64(c.cfg.QueueCap) {
					cap = int64(c.cfg.QueueCap)
				}
			}
			if cap != c.effCap.Load() {
				c.effCap.Store(cap)
				c.met.SetCapacity(cap)
			}
			c.evictExcess(int(cap))
		}
	}
}

// evictExcess sheds queued waiters down to the (possibly just shrunk)
// capacity, and re-applies the class fractions: lowest class first,
// newest first within a class (they have invested the least wait).
func (c *Controller) evictExcess(cap int) {
	var evict []*waiter
	c.mu.Lock()
	for cl := NumClasses - 1; cl >= 0 && c.waiting > cap; cl-- {
		allowed := int(classFrac[cl] * float64(cap))
		for c.queues[cl].n > allowed && c.waiting > cap {
			w := c.queues[cl].popTail()
			if w == nil {
				break
			}
			c.waiting--
			evict = append(evict, w)
		}
	}
	c.mu.Unlock()
	for _, w := range evict {
		w.ch <- shedded
	}
}

// Stats is a point-in-time controller snapshot.
type Stats struct {
	// Slots and QueueCap echo the configuration.
	Slots, QueueCap int
	// FreeSlots and Waiting are instantaneous occupancy.
	FreeSlots, Waiting int
	// EffectiveCap is the feedback-controlled queue capacity.
	EffectiveCap int
	// Admitted counts granted requests; Shed counts per class.
	Admitted int64
	Shed     [NumClasses]int64
	// WindowP99 is the last closed window's admitted queue-wait p99.
	WindowP99 time.Duration
	// TargetP99 echoes the configured target (0 = no feedback).
	TargetP99 time.Duration
}

// ShedTotal sums sheds across classes.
func (s Stats) ShedTotal() int64 {
	var t int64
	for _, n := range s.Shed {
		t += n
	}
	return t
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	st := Stats{
		Slots:        c.cfg.Slots,
		QueueCap:     c.cfg.QueueCap,
		FreeSlots:    c.slots,
		Waiting:      c.waiting,
		EffectiveCap: int(c.effCap.Load()),
		Admitted:     c.admitted.Load(),
		WindowP99:    time.Duration(c.lastP99.Load()),
		TargetP99:    c.cfg.TargetP99,
	}
	c.mu.Unlock()
	for i := range st.Shed {
		st.Shed[i] = c.shedN[i].Load()
	}
	return st
}

// Close shuts the controller down: queued waiters are released with
// ErrClosed, subsequent Admits fail fast. Idempotent.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	c.done = true
	var all []*waiter
	for cl := range c.queues {
		for {
			w := c.queues[cl].popHead()
			if w == nil {
				break
			}
			c.waiting--
			all = append(all, w)
		}
	}
	c.mu.Unlock()
	close(c.stop)
	for _, w := range all {
		w.ch <- closed
	}
	c.wg.Wait()
}
