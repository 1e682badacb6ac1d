// Package lock implements the record lock manager at the heart of the
// paper's contribution: two-phase locking with per-object wait queues and
// a pluggable lock scheduler.
//
// The default scheduler in MySQL and Postgres is First-Come-First-Served
// (FCFS). The paper's TProfiler study finds that variability in lock wait
// time under FCFS is the dominant source of transaction latency variance
// (>59% in MySQL), and §5 proposes Variance-Aware Transaction Scheduling
// (VATS): when a lock becomes available, grant it to the *eldest*
// transaction (largest age since transaction birth) rather than the one
// that arrived in this queue first. Theorem 1 shows VATS minimizes the
// expected Lp norm of transaction latencies when remaining times are
// i.i.d. — simultaneously reducing mean, variance, and tail latency.
//
// This package provides FCFS, VATS, and RS (random) schedulers behind the
// Scheduler interface, plus wait-for-graph deadlock detection and
// wait timeouts, both scheduler-agnostic so policy comparisons are fair.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/obs"
)

// TxnID identifies a transaction to the lock manager.
type TxnID uint64

// Mode is a lock mode.
type Mode int

const (
	// Shared is a read lock; shared locks are mutually compatible.
	Shared Mode = iota
	// Exclusive is a write lock; exclusive locks conflict with everything.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

// Compatible reports whether two lock modes can be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return a == Shared && b == Shared }

// Key names a lockable object (a record in a table).
type Key struct {
	Space uint32 // table / index id
	ID    uint64 // record id
}

// String renders the key for diagnostics.
func (k Key) String() string { return fmt.Sprintf("%d:%d", k.Space, k.ID) }

// Errors returned by Acquire.
var (
	// ErrDeadlock means the transaction was chosen as a deadlock victim
	// and must abort.
	ErrDeadlock = errors.New("lock: deadlock victim")
	// ErrTimeout means the lock wait exceeded Options.WaitTimeout.
	ErrTimeout = errors.New("lock: wait timeout")
	// ErrAborted means the transaction's pending waits were cancelled by
	// Abort.
	ErrAborted = errors.New("lock: transaction aborted")
)

// Request is a (possibly waiting) lock request. Schedulers order waiting
// Requests; the manager owns all other fields.
type Request struct {
	Owner TxnID
	Mode  Mode
	// Birth is the owning transaction's start time; VATS grants locks
	// eldest-Birth-first. The paper calls time-since-Birth the
	// transaction's age A(T).
	Birth time.Time
	// Seq is the arrival sequence number in this queue (FCFS order).
	Seq uint64
	// RandPrio is a per-request random priority used by the RS scheduler.
	RandPrio uint64

	key     Key
	upgrade bool
	granted chan error
	done    bool // guarded by shard mutex; set once resolved
	// inHolders reports whether a granted request was installed in the
	// holder list (false when an upgrade was merged into the existing
	// holder). Written under the shard mutex before the grant is sent;
	// the waiter reads it after receiving, so the channel orders it.
	inHolders bool
	// gen is the request's reuse generation. Requests are pooled per
	// shard; the deadlock detector snapshots (req, gen) pairs and
	// re-validates them under the shard mutex, so a request recycled to
	// a new wait cannot be mistaken for the snapshot's (ABA).
	gen uint64
}

// Stats aggregates lock-manager activity.
type Stats struct {
	Acquires     int64
	Waits        int64
	WaitTime     time.Duration
	Deadlocks    int64
	Timeouts     int64
	UpgradeWaits int64
}

// Options configures a Manager.
type Options struct {
	// Scheduler decides grant order; nil means FCFS.
	Scheduler Scheduler
	// Shards is the number of hash shards (default 64).
	Shards int
	// WaitTimeout bounds each lock wait; 0 means no timeout.
	WaitTimeout time.Duration
	// DetectInterval is how often the deadlock detector scans when
	// waiters exist (default 1ms). Negative disables detection.
	DetectInterval time.Duration
	// Obs receives live metrics (wait latency, queue depth, grant and
	// failure counts, labelled by scheduler policy); nil collects
	// nothing.
	Obs *obs.Obs
}

// Manager is a sharded record lock manager implementing strict 2PL lock
// acquisition with scheduler-controlled grant order.
type Manager struct {
	sched   Scheduler
	shards  []*shard
	timeout time.Duration
	met     *obs.LockMetrics

	acquires  atomic.Int64
	waits     atomic.Int64
	waitNs    atomic.Int64
	deadlocks atomic.Int64
	timeouts  atomic.Int64
	upWaits   atomic.Int64

	detectEvery time.Duration
	stopDetect  chan struct{}
	detectOnce  sync.Once
	waiterCount atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	locks map[Key]*lockState
	// held tracks, per owner, the keys it holds locks on in this shard,
	// so ReleaseAll need not scan the whole table. The key slices are
	// recycled through keyFree.
	held map[TxnID][]Key
	// waiting counts pending waiters per owner, so the commit-path
	// ReleaseAll (which never has waits to cancel) skips the
	// cancellation scan entirely.
	waiting map[TxnID]int
	seq     uint64
	rng     uint64 // xorshift state for RandPrio
	// states counts live lockStates; ReleaseAll skips shards whose
	// count reads zero without taking the mutex (an owner with state in
	// the shard keeps the count nonzero until it removes that state
	// itself, so the racy read is safe for the releasing owner).
	states atomic.Int64

	// reqPool and statePool recycle Requests (with their grant channels)
	// and lockStates. Both pools are per shard, so a recycled Request's
	// mutable fields stay guarded by this shard's mutex for their whole
	// life — a global pool would let a request migrate to another shard
	// and race the deadlock detector's re-validation.
	reqPool   sync.Pool
	statePool sync.Pool
	keyFree   [][]Key
}

type lockState struct {
	holders []*Request
	waiters []*Request
}

func (s *shard) newLockState() *lockState {
	if ls, _ := s.statePool.Get().(*lockState); ls != nil {
		return ls
	}
	return &lockState{}
}

// freeReqLocked recycles a resolved request. Caller holds s.mu and
// guarantees no goroutine will touch the request again (its grant
// channel has been drained or never sent to). Bumping gen invalidates
// any stale detector snapshot of the old incarnation.
func (s *shard) freeReqLocked(req *Request) {
	req.gen++
	s.reqPool.Put(req)
}

func (s *shard) waiterAdded(owner TxnID) { s.waiting[owner]++ }

func (s *shard) waiterRemoved(owner TxnID) {
	if c := s.waiting[owner] - 1; c <= 0 {
		delete(s.waiting, owner)
	} else {
		s.waiting[owner] = c
	}
}

// NewManager builds a lock manager.
func NewManager(opts Options) *Manager {
	if opts.Scheduler == nil {
		opts.Scheduler = FCFS{}
	}
	if opts.Shards <= 0 {
		opts.Shards = 64
	}
	if opts.DetectInterval == 0 {
		opts.DetectInterval = time.Millisecond
	}
	m := &Manager{
		sched:       opts.Scheduler,
		shards:      make([]*shard, opts.Shards),
		timeout:     opts.WaitTimeout,
		detectEvery: opts.DetectInterval,
		stopDetect:  make(chan struct{}),
		met:         obs.NewLockMetrics(opts.Obs, opts.Scheduler.Name()),
	}
	for i := range m.shards {
		m.shards[i] = &shard{
			locks:   make(map[Key]*lockState),
			held:    make(map[TxnID][]Key),
			waiting: make(map[TxnID]int),
			rng:     uint64(i)*2654435761 + 1,
		}
	}
	return m
}

// Close stops the background deadlock detector, if started.
func (m *Manager) Close() {
	m.detectOnce.Do(func() {}) // ensure Do below cannot start it afresh
	select {
	case <-m.stopDetect:
	default:
		close(m.stopDetect)
	}
}

// Scheduler returns the scheduler in use.
func (m *Manager) Scheduler() Scheduler { return m.sched }

func (m *Manager) shardOf(k Key) *shard {
	h := uint64(k.Space)*0x9e3779b1 ^ k.ID*0xff51afd7ed558ccd
	h ^= h >> 33
	return m.shards[h%uint64(len(m.shards))]
}

// Acquire obtains a lock of the given mode on key for owner, blocking
// until granted. birth is the owning transaction's start time (its age
// basis). It returns ErrDeadlock, ErrTimeout or ErrAborted when the wait
// cannot be satisfied. Re-acquiring an already-held lock of equal or
// weaker mode is a no-op; requesting Exclusive while holding Shared
// performs a lock upgrade.
func (m *Manager) Acquire(owner TxnID, birth time.Time, key Key, mode Mode) error {
	m.acquires.Add(1)
	s := m.shardOf(key)

	s.mu.Lock()
	ls := s.locks[key]
	if ls == nil {
		// Uncontended fast path: no state exists for the key, so there is
		// nothing to be compatible with and no scheduler decision to make.
		// With the pooled lockState and Request this path allocates
		// nothing in steady state.
		ls = s.newLockState()
		s.locks[key] = ls
		s.states.Add(1)
		req := m.newRequest(s, owner, birth, key, mode)
		req.inHolders = true
		ls.holders = append(ls.holders, req)
		m.trackHeld(s, owner, key)
		s.mu.Unlock()
		m.met.Granted()
		return nil
	}

	// Re-entrancy and upgrade analysis.
	var mine *Request
	othersHold := false
	for _, h := range ls.holders {
		if h.Owner == owner {
			mine = h
		} else {
			othersHold = true
		}
	}
	if mine != nil {
		if mine.Mode == Exclusive || mode == Shared {
			s.mu.Unlock()
			m.met.Granted()
			return nil // already strong enough
		}
		// Upgrade S -> X.
		if !othersHold && !m.waitingConflict(ls, owner) {
			mine.Mode = Exclusive
			s.mu.Unlock()
			m.met.Granted()
			return nil
		}
		req := m.newRequest(s, owner, birth, key, Exclusive)
		req.upgrade = true
		m.upWaits.Add(1)
		m.met.UpgradeWait()
		// Upgrades wait at the front conceptually: they are grantable
		// as soon as the owner is the sole holder.
		ls.waiters = append(ls.waiters, req)
		s.waiterAdded(owner)
		m.waiterCount.Add(1)
		m.met.Enqueued()
		m.ensureDetector()
		s.mu.Unlock()
		return m.wait(s, req)
	}

	// Fresh request.
	req := m.newRequest(s, owner, birth, key, mode)
	if m.grantableOnArrival(ls, req) {
		req.inHolders = true
		ls.holders = append(ls.holders, req)
		m.trackHeld(s, owner, key)
		s.mu.Unlock()
		m.met.Granted()
		return nil
	}
	ls.waiters = append(ls.waiters, req)
	s.waiterAdded(owner)
	m.waiterCount.Add(1)
	m.met.Enqueued()
	m.ensureDetector()
	if m.sched.GrantOnArrival() {
		m.grantPassLocked(s, key, ls)
		if req.done {
			s.mu.Unlock()
			m.waiterCount.Add(-1)
			// done can only be set with a grant or error already queued.
			err := <-req.granted
			m.settleRequest(s, req, err)
			m.obsResolve(err, 0)
			return err
		}
	}
	s.mu.Unlock()
	return m.wait(s, req)
}

// settleRequest recycles a request whose wait has resolved and whose
// grant channel has been drained. Granted requests installed as holders
// stay live until ReleaseAll frees them; everything else (failed waits,
// upgrades merged into the existing holder) is recycled here. inHolders
// was written under the shard mutex before the grant was sent, so
// reading it after the receive is ordered by the channel.
func (m *Manager) settleRequest(s *shard, req *Request, err error) {
	if err == nil && req.inHolders {
		return
	}
	s.mu.Lock()
	s.freeReqLocked(req)
	s.mu.Unlock()
}

// obsResolve reports a resolved wait to the metrics layer: the queue
// departure with its wait time, and the grant or failure cause.
func (m *Manager) obsResolve(err error, waited time.Duration) {
	if m.met == nil {
		return
	}
	m.met.WaitDone(waited)
	switch {
	case err == nil:
		m.met.Granted()
	case errors.Is(err, ErrDeadlock):
		m.met.Deadlock()
	case errors.Is(err, ErrTimeout):
		m.met.Timeout()
	case errors.Is(err, ErrAborted):
		m.met.WaitAborted()
	}
}

func (m *Manager) newRequest(s *shard, owner TxnID, birth time.Time, key Key, mode Mode) *Request {
	s.seq++
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	req, _ := s.reqPool.Get().(*Request)
	if req == nil {
		req = &Request{granted: make(chan error, 1)}
	}
	req.Owner = owner
	req.Mode = mode
	req.Birth = birth
	req.Seq = s.seq
	req.RandPrio = s.rng
	req.key = key
	req.upgrade = false
	req.done = false
	req.inHolders = false
	return req
}

// grantableOnArrival implements the arrival rule shared by all
// schedulers, matching the paper's §5.1: grant immediately iff the request
// is compatible with all current holders and no other transaction is
// waiting in the queue.
func (m *Manager) grantableOnArrival(ls *lockState, req *Request) bool {
	if len(ls.waiters) > 0 {
		return false
	}
	for _, h := range ls.holders {
		if h.Owner != req.Owner && !Compatible(h.Mode, req.Mode) {
			return false
		}
	}
	return true
}

func (m *Manager) waitingConflict(ls *lockState, owner TxnID) bool {
	for _, w := range ls.waiters {
		if w.Owner != owner && w.upgrade {
			return true
		}
	}
	return false
}

// trackHeld records that owner holds a lock on key in this shard. The
// per-owner slice may contain a duplicate key when an upgrade is
// re-granted; ReleaseAll tolerates that (the second pass finds the
// owner's holders already gone).
func (m *Manager) trackHeld(s *shard, owner TxnID, key Key) {
	hk, ok := s.held[owner]
	if !ok && len(s.keyFree) > 0 {
		n := len(s.keyFree) - 1
		hk, s.keyFree = s.keyFree[n][:0], s.keyFree[:n]
	}
	s.held[owner] = append(hk, key)
}

func (m *Manager) wait(s *shard, req *Request) error {
	m.waits.Add(1)
	start := time.Now()
	var timer *time.Timer
	var timeoutC <-chan time.Time
	if m.timeout > 0 {
		timer = time.NewTimer(m.timeout)
		timeoutC = timer.C
		defer timer.Stop()
	}
	select {
	case err := <-req.granted:
		m.waitNs.Add(time.Since(start).Nanoseconds())
		m.waiterCount.Add(-1)
		if err != nil {
			m.deadlocksOrAborts(err)
		}
		m.settleRequest(s, req, err)
		m.obsResolve(err, time.Since(start))
		return err
	case <-timeoutC:
		// Race: the grant may have happened concurrently. Resolve under
		// the shard lock.
		s.mu.Lock()
		if req.done {
			s.mu.Unlock()
			err := <-req.granted
			m.waitNs.Add(time.Since(start).Nanoseconds())
			m.waiterCount.Add(-1)
			if err != nil {
				m.deadlocksOrAborts(err)
			}
			m.settleRequest(s, req, err)
			m.obsResolve(err, time.Since(start))
			return err
		}
		m.removeWaiterLocked(s, req)
		s.freeReqLocked(req)
		s.mu.Unlock()
		m.waitNs.Add(time.Since(start).Nanoseconds())
		m.waiterCount.Add(-1)
		m.timeouts.Add(1)
		m.obsResolve(ErrTimeout, time.Since(start))
		return ErrTimeout
	}
}

func (m *Manager) deadlocksOrAborts(err error) {
	if errors.Is(err, ErrDeadlock) {
		m.deadlocks.Add(1)
	}
}

// removeWaiterLocked removes req from its queue; caller holds s.mu.
func (m *Manager) removeWaiterLocked(s *shard, req *Request) {
	ls := s.locks[req.key]
	if ls == nil {
		return
	}
	for i, w := range ls.waiters {
		if w == req {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			s.waiterRemoved(req.Owner)
			break
		}
	}
	req.done = true
	// Removing a waiter can unblock others (it may have been the
	// incompatible one ahead of them).
	m.grantPassLocked(s, req.key, ls)
	m.cleanupLocked(s, req.key, ls)
}

func (m *Manager) cleanupLocked(s *shard, key Key, ls *lockState) {
	if len(ls.holders) == 0 && len(ls.waiters) == 0 {
		delete(s.locks, key)
		s.states.Add(-1)
		s.statePool.Put(ls)
	}
}

// ReleaseAll releases every lock held by owner and cancels its pending
// waits. This is the strict-2PL unlock at commit/abort time.
func (m *Manager) ReleaseAll(owner TxnID) {
	for _, s := range m.shards {
		if s.states.Load() == 0 {
			// Nothing lives in this shard. The owner's own lock state (if
			// it had any) can only be removed by this very call, so the
			// racy read can never skip a shard the owner has locks or
			// waits in.
			continue
		}
		s.mu.Lock()
		keys := s.held[owner]
		if keys != nil {
			delete(s.held, owner)
			for _, key := range keys {
				ls := s.locks[key]
				if ls == nil {
					continue // duplicate key from an upgrade re-grant
				}
				for i := 0; i < len(ls.holders); {
					if h := ls.holders[i]; h.Owner == owner {
						ls.holders = append(ls.holders[:i], ls.holders[i+1:]...)
						// The owner's Acquire returned long ago; only stale
						// detector snapshots still reference h, and the gen
						// bump invalidates those.
						s.freeReqLocked(h)
					} else {
						i++
					}
				}
				m.grantPassLocked(s, key, ls)
				m.cleanupLocked(s, key, ls)
			}
			s.keyFree = append(s.keyFree, keys)
		}
		// Cancel pending waits (abort path; a committing txn has none).
		if s.waiting[owner] > 0 {
			m.cancelWaitsLocked(s, owner, ErrAborted)
		}
		s.mu.Unlock()
	}
}

func (m *Manager) cancelWaitsLocked(s *shard, owner TxnID, cause error) {
	if s.waiting[owner] == 0 {
		return
	}
	for key, ls := range s.locks {
		changed := false
		for i := 0; i < len(ls.waiters); {
			w := ls.waiters[i]
			if w.Owner == owner && !w.done {
				ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
				w.done = true
				s.waiterRemoved(owner)
				w.granted <- cause
				changed = true
			} else {
				i++
			}
		}
		if changed {
			m.grantPassLocked(s, key, ls)
			m.cleanupLocked(s, key, ls)
		}
	}
}

// grantPassLocked grants as many waiting requests as the scheduler's
// order allows: a waiter is granted iff it is compatible with all current
// holders and does not conflict with any still-waiting request ahead of
// it in the scheduler's order. Caller holds s.mu.
func (m *Manager) grantPassLocked(s *shard, key Key, ls *lockState) {
	if len(ls.waiters) == 0 {
		return
	}
	order := m.sched.Order(ls.waiters)
	var blockedAhead []*Request
	for _, w := range order {
		if w.done {
			continue
		}
		if m.grantableLocked(ls, w, blockedAhead) {
			m.grantLocked(s, key, ls, w)
		} else {
			blockedAhead = append(blockedAhead, w)
		}
	}
}

func (m *Manager) grantableLocked(ls *lockState, w *Request, ahead []*Request) bool {
	if w.upgrade {
		// Grantable when the owner is the sole holder.
		for _, h := range ls.holders {
			if h.Owner != w.Owner {
				return false
			}
		}
		return true
	}
	for _, h := range ls.holders {
		if h.Owner != w.Owner && !Compatible(h.Mode, w.Mode) {
			return false
		}
	}
	for _, a := range ahead {
		if a.Owner != w.Owner && !Compatible(a.Mode, w.Mode) {
			return false
		}
	}
	return true
}

func (m *Manager) grantLocked(s *shard, key Key, ls *lockState, w *Request) {
	for i, q := range ls.waiters {
		if q == w {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			s.waiterRemoved(w.Owner)
			break
		}
	}
	w.done = true
	if w.upgrade {
		upgraded := false
		for _, h := range ls.holders {
			if h.Owner == w.Owner {
				h.Mode = Exclusive
				upgraded = true
				break
			}
		}
		if !upgraded {
			// Holder vanished (owner released while upgrade waited);
			// grant as a fresh exclusive lock.
			w.inHolders = true
			ls.holders = append(ls.holders, w)
		}
	} else {
		w.inHolders = true
		ls.holders = append(ls.holders, w)
	}
	m.trackHeld(s, w.Owner, key)
	w.granted <- nil
}

// Held reports whether owner currently holds a lock on key, and its mode.
func (m *Manager) Held(owner TxnID, key Key) (Mode, bool) {
	s := m.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.locks[key]
	if ls == nil {
		return 0, false
	}
	for _, h := range ls.holders {
		if h.Owner == owner {
			return h.Mode, true
		}
	}
	return 0, false
}

// QueueLen returns the number of transactions waiting on key.
func (m *Manager) QueueLen(key Key) int {
	s := m.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.locks[key]
	if ls == nil {
		return 0
	}
	return len(ls.waiters)
}

// HolderCount returns the number of granted locks on key.
func (m *Manager) HolderCount(key Key) int {
	s := m.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.locks[key]
	if ls == nil {
		return 0
	}
	return len(ls.holders)
}

// Stats returns a snapshot of manager counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquires:     m.acquires.Load(),
		Waits:        m.waits.Load(),
		WaitTime:     time.Duration(m.waitNs.Load()),
		Deadlocks:    m.deadlocks.Load(),
		Timeouts:     m.timeouts.Load(),
		UpgradeWaits: m.upWaits.Load(),
	}
}
