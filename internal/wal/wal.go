// Package wal implements the redo-log manager: LSN allocation, group
// commit, the three durability policies MySQL exposes through
// innodb_flush_log_at_trx_commit (eager flush, lazy flush, lazy write —
// see the paper's Appendix B), and single-stream vs. parallel logging
// (§4.2/§6.2): every log device is one stream.
//
// With one device all committers serialize on it — the Postgres
// WALWriteLock pathology TProfiler identifies as 76.8% of overall latency
// variance. With two (or more) the devices hold independent sets of redo
// logs and an appending transaction picks the stream with the smaller
// backlog (§6.2).
//
// The log is stored as *batches*, not individual records: a transaction
// hands the manager all of its redo records in one AppendBatch call (one
// lock acquisition per transaction instead of one per statement), and the
// batch travels queued → written → durable as a unit.
//
// What is durable is recorded once, as the durable watermark. A durable
// batch's bytes live on the device: batches are written as checksummed
// frames (codec.go), the manager forgets a batch once it is fsynced, and
// recovery reads the device images.
//
// Each stream has one flusher goroutine, and it is the only code that
// touches the stream's device. AppendBatch puts a batch on a stream's
// queue; the flusher takes everything queued, writes it, fsyncs when
// someone needs durability (or the lazy policies' interval elapses),
// settles the bookkeeping and wakes the waiters. Commit, CommitSync,
// Release and Flush never do I/O: they nudge the flusher and wait until
// the batches they care about have reached the state they need. A batch
// never leaves its flusher's hands before it is durable, so a transient
// device error is retried where it happened and no waiter has to notice.
package wal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/disk"
	"vats/internal/obs"
)

// LSN is a log sequence number; LSNs are dense and strictly increasing.
type LSN uint64

// FlushPolicy selects when redo records become durable relative to
// commit. The names mirror the paper's Appendix B.
type FlushPolicy int

const (
	// EagerFlush has Commit wait until the transaction's redo records are
	// written and fsynced (innodb_flush_log_at_trx_commit = 1). Durable
	// but the full disk-latency variance lands on the transaction.
	EagerFlush FlushPolicy = iota
	// LazyFlush has Commit wait for the write only; the fsync happens
	// every FlushInterval (= 2). A crash can lose transactions that
	// committed since the last flush.
	LazyFlush
	// LazyWrite defers both write and fsync to the interval flush (= 0):
	// Commit waits for nothing. Fastest and most predictable commit;
	// largest crash window.
	LazyWrite
)

// String names the policy.
func (p FlushPolicy) String() string {
	switch p {
	case LazyFlush:
		return "LazyFlush"
	case LazyWrite:
		return "LazyWrite"
	default:
		return "EagerFlush"
	}
}

// ErrCrashed is returned by operations after Crash, or after a log
// device reaches its fault plan's crash point: it is disk.ErrCrashed.
var ErrCrashed = disk.ErrCrashed

// errClosed is returned by operations after Close.
var errClosed = errors.New("wal: log closed")

// Config configures a Manager.
type Config struct {
	// Devices are the log devices, one stream each. One device =
	// single-stream logging (the Postgres WALWriteLock model); two or
	// more = parallel logging.
	Devices []disk.Device
	// Policy is the durability policy.
	Policy FlushPolicy
	// FlushInterval is the flusher's fsync period under the lazy
	// policies (the paper's engines use ~1s; scaled default 5ms).
	FlushInterval time.Duration
	// Obs, when non-nil, receives live metrics (flush latency,
	// group-commit batch size, bytes, per-stream flush counts).
	Obs *obs.Obs
}

// Stats reports log-manager activity.
type Stats struct {
	Appends     int64
	Flushes     int64
	RecordsSync int64 // records made durable
	Bytes       int64
	// GroupedCommits counts commits satisfied by a flush they shared with
	// another committer (group commit piggybacking): every commit that
	// waited for durability, minus one per flush that served any.
	GroupedCommits int64
}

// batch is the unit of log storage and of durability: the redo records
// one AppendBatch call delivered for one transaction. Payloads live in a
// single contiguous buffer with per-record end offsets, so a batch of n
// records costs two allocations, not n. A batch becomes durable as a
// whole — after a crash it is either fully recovered or fully absent.
type batch struct {
	txn   uint64
	first LSN    // LSN of record 0; records are dense through last()
	data  []byte // concatenated payload bytes
	ends  []int  // ends[i] = end offset of record i in data
}

func (b *batch) last() LSN  { return b.first + LSN(len(b.ends)) - 1 }
func (b *batch) bytes() int { return len(b.data) }

// state is how far a batch has travelled. AppendBatch makes it queued;
// from there only its stream's flusher moves it.
type state int

const (
	queued  state = iota // on a stream's queue
	written              // in the device's volatile cache
	durable              // fsynced
)

// commitWaits is the whole difference between the policies on the
// commit path: the state Commit waits for the transaction's batches to
// reach.
var commitWaits = [...]state{EagerFlush: durable, LazyFlush: written, LazyWrite: queued}

// maxRetries bounds how many consecutive transient device errors one
// flusher pass retries through before it gives up and reports the error
// to the waiters. The batches stay with the flusher; the next nudge or
// interval tries again.
const maxRetries = 100

// maxScratch caps the frame scratch buffer a flusher keeps between
// passes, so one pass that wrote a huge group (a Flush after a long
// unflushed stretch) does not pin that much heap for the stream's life.
const maxScratch = 1 << 20

// txnPending counts one transaction's batches that are not yet durable.
type txnPending struct {
	unwritten int  // still queued (or held by a flusher whose write failed)
	undurable int  // not yet fsynced; always ≥ unwritten
	waiting   bool // a committer is blocked until undurable reaches 0
}

// Manager is the redo-log manager.
type Manager struct {
	cfg     Config
	streams []*stream // one per device
	met     *obs.WALMetrics

	// next is the last allocated LSN; allocation is a lock-free atomic
	// add, so concurrent appenders never serialize on LSN assignment.
	next atomic.Uint64

	mu sync.Mutex
	// reached[s] is broadcast whenever a flusher moves batches into
	// state s (and, both of them, when the manager fails or a flusher
	// gives up). Two conditions, so that a write does not wake the
	// committers waiting for the fsync that follows it.
	reached [durable + 1]*sync.Cond
	// err is nil while the log runs, ErrCrashed after a crash (explicit
	// or reported by a device), errClosed after Close.
	err error
	// pending holds the transactions with batches not yet durable.
	pending map[uint64]txnPending
	// marks[i] is the highest LSN stream i has made durable; contig is
	// the global durable watermark — every LSN ≤ contig is durable. ooo
	// holds completed ranges waiting for a gap to fill (out-of-order
	// completion across parallel streams), sorted by first LSN. Together
	// with truncLow they are the record of what is durable.
	marks  []LSN
	contig LSN
	ooo    []lsnRange
	// truncLow is the highest Truncate bound applied so far, never above
	// contig+1: LSNs below it are durable but reclaimed.
	truncLow LSN

	appends atomic.Int64
	flushes atomic.Int64
	synced  atomic.Int64
	bytes   atomic.Int64
	grouped atomic.Int64

	// stop is closed by Close (the flushers drain, then exit) and by a
	// crash (they exit at once); flushers counts them out.
	stop     chan struct{}
	stopOnce sync.Once
	flushers sync.WaitGroup
}

type lsnRange struct{ first, last LSN }

// lsnRanges is a sorted list of disjoint LSN ranges.
type lsnRanges []lsnRange

// covers reports whether [first, last] lies inside one of the ranges.
func (rs lsnRanges) covers(first, last LSN) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].last >= first })
	return i < len(rs) && rs[i].first <= first && last <= rs[i].last
}

func (rs lsnRanges) count() int {
	n := 0
	for _, r := range rs {
		n += int(r.last - r.first + 1)
	}
	return n
}

// durableRangesLocked snapshots the durable watermark as ranges: every
// LSN from the truncation bound through contig, then the parked
// out-of-order ranges (all above contig+1, so the list stays sorted and
// disjoint). Caller holds m.mu.
func (m *Manager) durableRangesLocked() lsnRanges {
	rs := make(lsnRanges, 0, 1+len(m.ooo))
	if low := max(m.truncLow, 1); m.contig >= low {
		rs = append(rs, lsnRange{low, m.contig})
	}
	return append(rs, m.ooo...)
}

// stream is one log device and the flusher goroutine that owns it.
type stream struct {
	idx int
	dev disk.Device
	// wake rouses the flusher. Capacity 1: a nudge sent while a pass is
	// in flight is remembered for the next pass and never blocks.
	wake chan struct{}

	// Guarded by Manager.mu.
	queue []*batch
	// enq, written and synced count the batches ever queued on, written
	// to and made durable by this stream. The flusher works in queue
	// order, so each counts a prefix of the one before.
	enq, written, synced uint64
	// wantSync: a waiter needs durability, so the next pass ends with an
	// fsync whatever the policy.
	wantSync bool
	// err is why the last pass gave up, nil if it did not; the next
	// nudge clears it.
	err error

	// Owned by the flusher goroutine.
	unwritten     []*batch // taken off queue, not yet written successfully
	unsynced      []*batch // written, waiting for an fsync
	unsyncedBytes int
	frames        []byte // WriteData scratch
}

// New builds a Manager and starts its flushers. At least one device is
// required. Close or Crash stops them.
func New(cfg Config) *Manager {
	if len(cfg.Devices) == 0 {
		panic("wal: need at least one device")
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Millisecond
	}
	m := &Manager{cfg: cfg, pending: make(map[uint64]txnPending), stop: make(chan struct{})}
	m.met = obs.NewWALMetrics(cfg.Obs, len(cfg.Devices))
	m.reached[written] = sync.NewCond(&m.mu)
	m.reached[durable] = sync.NewCond(&m.mu)
	m.marks = make([]LSN, len(cfg.Devices))
	for i, d := range cfg.Devices {
		st := &stream{idx: i, dev: d, wake: make(chan struct{}, 1)}
		m.streams = append(m.streams, st)
		m.flushers.Add(1)
		go m.flusher(st)
	}
	return m
}

// Append buffers one redo record for txn and returns its LSN. The record
// is not durable until Commit (eager) or an interval flush (lazy).
func (m *Manager) Append(txn uint64, payload []byte) (LSN, error) {
	bt := &batch{txn: txn, data: append([]byte(nil), payload...), ends: []int{len(payload)}}
	return m.appendBatch(bt)
}

// AppendBatch buffers all of txn's payloads as one atomic batch and
// returns the LSN of its first record; the rest follow densely. The
// payload bytes are copied once into a single contiguous buffer, and the
// whole batch takes one lock acquisition regardless of record count.
// Durability is all-or-nothing: after a crash either every record in the
// batch is recovered or none is.
func (m *Manager) AppendBatch(txn uint64, payloads [][]byte) (LSN, error) {
	if len(payloads) == 0 {
		return 0, nil
	}
	total := 0
	for _, p := range payloads {
		total += len(p)
	}
	bt := &batch{txn: txn, data: make([]byte, 0, total), ends: make([]int, len(payloads))}
	for i, p := range payloads {
		bt.data = append(bt.data, p...)
		bt.ends[i] = len(bt.data)
	}
	return m.appendBatch(bt)
}

// NextLSN returns the highest LSN allocated so far; the next Append
// will receive an LSN strictly greater. The checkpointer's active-
// transaction registry reads this *before* a transaction appends to
// get a lower bound on where that transaction's records will land.
func (m *Manager) NextLSN() LSN {
	return LSN(m.next.Load())
}

// appendBatch allocates bt's LSNs and queues it on the stream with the
// least backlog (§6.2).
func (m *Manager) appendBatch(bt *batch) (LSN, error) {
	n := len(bt.ends)
	bt.first = LSN(m.next.Add(uint64(n))) - LSN(n) + 1
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return 0, m.err
	}
	st := m.streams[0]
	for _, s := range m.streams[1:] {
		if s.enq-s.synced < st.enq-st.synced {
			st = s
		}
	}
	st.queue = append(st.queue, bt)
	st.enq++
	p := m.pending[bt.txn]
	p.unwritten++
	p.undurable++
	m.pending[bt.txn] = p
	m.mu.Unlock()
	m.appends.Add(int64(n))
	m.met.AppendN(n)
	return bt.first, nil
}

// Commit returns when the policy's commit-path obligation for txn is
// met: for EagerFlush its records are fsynced; for LazyFlush, written;
// for LazyWrite, merely queued.
func (m *Manager) Commit(txn uint64) error {
	return m.await(txn, nil, commitWaits[m.cfg.Policy])
}

// CommitSync makes txn's records durable NOW, regardless of the
// configured policy — the forced-durability primitive two-phase commit
// needs for prepare and decision records.
func (m *Manager) CommitSync(txn uint64) error {
	return m.await(txn, nil, durable)
}

// Release moves txn's queued records toward the device WITHOUT a
// durability barrier — LazyFlush's commit obligation, available under
// any policy. It exists for bulk streamers like checkpoints: releasing
// each chunk keeps the queue bounded without forcing an fsync per chunk
// (under EagerFlush a plain Commit would), so background streaming adds
// exactly one barrier — the final Flush — to the live group-commit
// traffic. Released records become durable with the next fsync anyone
// asks for.
func (m *Manager) Release(txn uint64) error {
	return m.await(txn, nil, written)
}

// Flush returns once every record appended before the call is durable
// (clean shutdown, checkpoint completion). The error matters: a
// checkpoint that truncates the log after a failed flush would discard
// records it never made durable.
func (m *Manager) Flush() error {
	m.mu.Lock()
	upTo := make([]uint64, len(m.streams))
	for i, st := range m.streams {
		upTo[i] = st.enq
	}
	m.mu.Unlock()
	return m.await(0, upTo, durable)
}

// await is the one wait loop behind Commit, CommitSync, Release and
// Flush: nudge the flushers, then sleep until txn's batches — or, when
// upTo is non-nil, the first upTo[i] batches of every stream i — have
// reached state want. It fails when the manager has, and when a flusher
// it nudged gave up on its device.
func (m *Manager) await(txn uint64, upTo []uint64, want state) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for nudged := false; ; nudged = true {
		if m.err != nil {
			return m.err
		}
		if want == queued || m.reachedLocked(txn, upTo, want) {
			return nil
		}
		for _, st := range m.streams {
			if nudged && st.err != nil {
				return st.err // the pass this call asked for gave up
			}
		}
		if upTo == nil && want == durable {
			p := m.pending[txn]
			p.waiting = true
			m.pending[txn] = p
		}
		m.nudgeLocked(want)
		m.reached[want].Wait()
	}
}

func (m *Manager) reachedLocked(txn uint64, upTo []uint64, want state) bool {
	if upTo != nil {
		for i, st := range m.streams {
			if st.synced < upTo[i] {
				return false
			}
		}
		return true
	}
	p, pending := m.pending[txn]
	return !pending || (want == written && p.unwritten == 0)
}

// nudgeLocked wakes the flusher of every stream that still has batches
// short of state want, asking for an fsync when want is durable.
func (m *Manager) nudgeLocked(want state) {
	for _, st := range m.streams {
		behind := st.written < st.enq
		if want == durable && st.synced < st.enq {
			st.wantSync, behind = true, true
		}
		if !behind {
			continue
		}
		st.err = nil
		select {
		case st.wake <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
}

// flusher is st's flusher goroutine: the only code that moves st's
// batches forward. A nudge gets the queue written (and fsynced if a
// waiter asked); under the lazy policies the interval tick fsyncs
// whatever has accumulated.
func (m *Manager) flusher(st *stream) {
	defer m.flushers.Done()
	var tick <-chan time.Time
	if m.cfg.Policy != EagerFlush {
		t := time.NewTicker(m.cfg.FlushInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-st.wake:
			m.flush(st, false)
		case <-tick:
			m.flush(st, true)
		case <-m.stop:
			// Clean shutdown: drain. After a crash flush does nothing.
			m.flush(st, true)
			return
		}
	}
}

// flush runs one flusher pass over st: take everything queued, write
// it, fsync if asked, complete, broadcast. A transient device error is
// retried on the batches the flusher still holds, picking up whatever
// was queued meanwhile; a crash outcome kills the manager and abandons
// them — the device images are the truth then.
func (m *Manager) flush(st *stream, sync bool) {
	var err error
	for try := 0; try < maxRetries; try++ {
		m.mu.Lock()
		if m.err != nil {
			m.mu.Unlock()
			return
		}
		st.unwritten = append(st.unwritten, st.queue...)
		clear(st.queue)
		st.queue = st.queue[:0]
		sync = sync || st.wantSync
		st.wantSync = false
		m.mu.Unlock()

		if err = m.pass(st, sync); err == nil {
			return
		}
		if errors.Is(err, ErrCrashed) {
			m.fail(ErrCrashed)
			return
		}
	}
	m.mu.Lock()
	st.err = err
	m.mu.Unlock()
	m.wakeAll()
}

// pass writes st.unwritten and, if sync, fsyncs st.unsynced, moving the
// batches along and waking their waiters after each step. On an error
// the batches stay where they were.
func (m *Manager) pass(st *stream, sync bool) error {
	var start time.Time
	if sync && m.met.FlushEnabled() {
		start = time.Now()
	}
	if len(st.unwritten) > 0 {
		if err := m.deviceIO(st, st.unwritten, false); err != nil {
			return err
		}
		m.mu.Lock()
		if m.err != nil {
			m.mu.Unlock()
			return m.err
		}
		for _, bt := range st.unwritten {
			p := m.pending[bt.txn]
			p.unwritten--
			m.pending[bt.txn] = p
			st.unsyncedBytes += bt.bytes()
		}
		st.written += uint64(len(st.unwritten))
		m.mu.Unlock()
		m.reached[written].Broadcast()
		st.unsynced = append(st.unsynced, st.unwritten...)
		clear(st.unwritten)
		st.unwritten = st.unwritten[:0]
	}
	if !sync || len(st.unsynced) == 0 {
		return nil
	}
	if err := m.deviceIO(st, nil, true); err != nil {
		return err
	}
	m.mu.Lock()
	if m.err != nil {
		// A crash raced with the fsync: do not complete the batches.
		m.mu.Unlock()
		return m.err
	}
	recs := m.completeLocked(st, st.unsynced)
	// Let go of the batches before anyone learns they are durable:
	// nothing else references them.
	clear(st.unsynced)
	st.unsynced = st.unsynced[:0]
	m.mu.Unlock()
	m.reached[durable].Broadcast()
	m.flushes.Add(1)
	m.bytes.Add(int64(st.unsyncedBytes))
	if !start.IsZero() {
		m.met.FlushDone(time.Since(start), recs, st.unsyncedBytes, st.idx)
	}
	st.unsyncedBytes = 0
	return nil
}

// deviceIO is the flusher's device step and the only code that touches
// a log device: write the given batches as frames, then fsync if sync.
func (m *Manager) deviceIO(st *stream, write []*batch, sync bool) error {
	if len(write) > 0 {
		st.frames = st.frames[:0]
		for _, bt := range write {
			st.frames = appendFrame(st.frames, bt)
		}
		err := st.dev.WriteData(st.frames)
		if cap(st.frames) > maxScratch {
			st.frames = nil
		}
		if err != nil {
			return err
		}
	}
	if sync {
		return st.dev.Sync()
	}
	return nil
}

// completeLocked marks st's fsynced batches durable: settles each
// transaction's pending counts, advances the stream's and the global
// durable-LSN watermarks and does the group-commit accounting. Returns
// the record count. Caller holds m.mu.
func (m *Manager) completeLocked(st *stream, done []*batch) int {
	recs, served := 0, 0
	for _, bt := range done {
		recs += len(bt.ends)
		if l := bt.last(); l > m.marks[st.idx] {
			m.marks[st.idx] = l
		}
		p := m.pending[bt.txn]
		if p.undurable--; p.undurable > 0 {
			m.pending[bt.txn] = p
		} else {
			delete(m.pending, bt.txn)
			if p.waiting {
				served++
			}
		}
		m.advanceWatermarkLocked(bt.first, bt.last())
	}
	st.synced += uint64(len(done))
	m.synced.Add(int64(recs))
	for ; served > 1; served-- {
		m.grouped.Add(1)
		m.met.Grouped()
	}
	return recs
}

// advanceWatermarkLocked merges one newly durable LSN range into the
// global watermark. Ranges complete out of order across parallel
// streams; completed ranges beyond a gap park in m.ooo until the gap
// fills. Caller holds m.mu.
func (m *Manager) advanceWatermarkLocked(first, last LSN) {
	if first != m.contig+1 {
		i := sort.Search(len(m.ooo), func(i int) bool { return m.ooo[i].first > first })
		m.ooo = append(m.ooo, lsnRange{})
		copy(m.ooo[i+1:], m.ooo[i:])
		m.ooo[i] = lsnRange{first, last}
		return
	}
	m.contig = last
	for len(m.ooo) > 0 && m.ooo[0].first == m.contig+1 {
		m.contig = m.ooo[0].last
		m.ooo = m.ooo[1:]
	}
}

// fail moves the manager into its terminal state — first error wins —
// stops the flushers and wakes every waiter. It does not join the
// flushers: the caller may be one.
func (m *Manager) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.stopOnce.Do(func() { close(m.stop) })
	m.wakeAll()
}

func (m *Manager) wakeAll() {
	m.reached[written].Broadcast()
	m.reached[durable].Broadcast()
}

// Crash simulates a crash: all non-durable batches are lost and the
// manager refuses further work. Use Recovered to inspect the surviving
// prefix. The paper's Appendix B: lazy policies "risk losing forward
// progress in the event of a crash".
func (m *Manager) Crash() {
	m.fail(ErrCrashed)
	m.flushers.Wait()
}

// Close is the clean shutdown: each flusher makes everything queued on
// its stream durable (unless its device keeps failing, or crashes) and
// exits; the manager then refuses further work.
func (m *Manager) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.flushers.Wait()
	m.fail(errClosed)
}

// Entry is one durable log record as seen by recovery.
type Entry struct {
	LSN     LSN
	Txn     uint64
	Payload []byte
}

// RecoveredEntries returns the durable records with their transaction
// ids in LSN order — the input to the engine's redo recovery. Only the
// watermark snapshot is taken under the manager's mutex. The records are
// then decoded from the devices' acked images, and only LSNs in the
// snapshot are kept. That is exactly the set the manager completed: an
// acked image may also hold frames whose fsync raced a crash, or that
// completed after the snapshot.
func (m *Manager) RecoveredEntries() []Entry {
	m.mu.Lock()
	keep := m.durableRangesLocked()
	m.mu.Unlock()
	all := AckedDeviceEntries(m.cfg.Devices...)
	out := all[:0]
	for _, e := range all {
		if keep.covers(e.LSN, e.LSN) {
			out = append(out, e)
		}
	}
	return out
}

// Truncate discards durable records with LSN below `before` — the log
// reclamation step after a checkpoint. The bound is clamped to
// contig+1, so a record that is not durable is never discarded. The
// device bytes stay where they are; RecoveredEntries hides the records
// below the bound.
func (m *Manager) Truncate(before LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.truncLow = max(m.truncLow, min(before, m.contig+1))
	return nil
}

// Recovered returns the payloads of durable records in LSN order — what
// crash recovery would replay.
func (m *Manager) Recovered() [][]byte {
	var out [][]byte
	for _, e := range m.RecoveredEntries() {
		out = append(out, e.Payload)
	}
	return out
}

// DurableCount returns how many records are durable and not truncated.
func (m *Manager) DurableCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durableRangesLocked().count()
}

// DurableWatermark returns the global durable watermark: the highest LSN
// W such that every record with LSN ≤ W has been made durable. It is
// monotone non-decreasing and advances only when out-of-order stream
// completions close their gaps.
func (m *Manager) DurableWatermark() LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.contig
}

// StreamWatermarks returns, per log stream, the highest LSN that stream
// has made durable (0 if it has flushed nothing). Each entry is monotone
// non-decreasing.
func (m *Manager) StreamWatermarks() []LSN {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]LSN(nil), m.marks...)
}

// CheckInvariants audits the manager's bookkeeping and returns the
// first violation found. The torture harness calls it after every
// workload round and after recovery; it must hold at any quiescent
// point regardless of policy, stream count, or injected faults.
//
// Invariants checked:
//
//   - the truncation bound never passes contig+1;
//   - every LSN the watermark says is durable is present in the
//     devices' acked images;
//   - parked out-of-order ranges are sorted, disjoint, and strictly
//     above the watermark with a real gap below them;
//   - every stream's counters are ordered (synced ≤ written ≤ enq) and
//     the per-transaction pending counts add up to them.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	keep, err := m.checkLocked()
	m.mu.Unlock()
	if err != nil {
		return err
	}
	// Acked images only grow, so reading them after the snapshot can
	// only find more. MergeEntries leaves the LSNs strictly increasing,
	// so a range is present iff both ends sit the right distance apart.
	have := AckedDeviceEntries(m.cfg.Devices...)
	for _, r := range keep {
		i := sort.Search(len(have), func(i int) bool { return have[i].LSN >= r.first })
		j := i + int(r.last-r.first)
		if j >= len(have) || have[i].LSN != r.first || have[j].LSN != r.last {
			return fmt.Errorf("wal: durable LSNs %d-%d are not all in the devices' acked images", r.first, r.last)
		}
	}
	return nil
}

// checkLocked audits the in-memory bookkeeping and returns the durable
// watermark snapshot. Caller holds m.mu.
func (m *Manager) checkLocked() (lsnRanges, error) {
	for i, r := range m.ooo {
		if r.last < r.first {
			return nil, fmt.Errorf("wal: ooo range %d inverted (%d-%d)", i, r.first, r.last)
		}
		if r.first <= m.contig+1 {
			return nil, fmt.Errorf("wal: ooo range %d (%d-%d) should have merged into watermark %d", i, r.first, r.last, m.contig)
		}
		if i > 0 && r.first <= m.ooo[i-1].last {
			return nil, fmt.Errorf("wal: ooo ranges %d and %d overlap", i-1, i)
		}
	}
	if m.truncLow > m.contig+1 {
		return nil, fmt.Errorf("wal: truncation bound %d above watermark %d", m.truncLow, m.contig)
	}
	var unwritten, undurable uint64
	for txn, p := range m.pending {
		if p.undurable <= 0 || p.unwritten < 0 || p.unwritten > p.undurable {
			return nil, fmt.Errorf("wal: pending[%d] = %d unwritten, %d undurable", txn, p.unwritten, p.undurable)
		}
		unwritten += uint64(p.unwritten)
		undurable += uint64(p.undurable)
	}
	for _, st := range m.streams {
		if st.synced > st.written || st.written > st.enq || uint64(len(st.queue)) > st.enq-st.written {
			return nil, fmt.Errorf("wal: stream %d counters out of order: queue=%d enq=%d written=%d synced=%d",
				st.idx, len(st.queue), st.enq, st.written, st.synced)
		}
		unwritten -= st.enq - st.written
		undurable -= st.enq - st.synced
	}
	if unwritten != 0 || undurable != 0 {
		return nil, fmt.Errorf("wal: pending counts and stream counters disagree (unwritten off by %d, undurable by %d)",
			int64(unwritten), int64(undurable))
	}
	return m.durableRangesLocked(), nil
}

// Devices returns the manager's log devices, one per stream (for the
// torture harness and recovery to reach the byte images).
func (m *Manager) Devices() []disk.Device {
	return append([]disk.Device(nil), m.cfg.Devices...)
}

// Crashed reports whether the manager has observed a crash — either an
// explicit Crash call or a crash outcome from a device's fault plan.
func (m *Manager) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err == ErrCrashed
}

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Appends:        m.appends.Load(),
		Flushes:        m.flushes.Load(),
		RecordsSync:    m.synced.Load(),
		Bytes:          m.bytes.Load(),
		GroupedCommits: m.grouped.Load(),
	}
}
