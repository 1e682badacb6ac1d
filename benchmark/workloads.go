package main

// The five workloads. Each builds a system (sut.go), loads it, and
// hands the generator a set of streams plus the audit that decides
// whether the run's outputs were correct.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// workloadDef is a workload's frozen definition. Rates and the p99
// limit are absolute: they were derived once from the seed commit
// (README, "Frozen numbers") and are never re-derived from the code
// under test, so a before/after pair sees identical load.
type workloadDef struct {
	name       string
	rates      [3]float64 // r1, r2, r3 in txn/s
	p99LimitMs float64    // 3 × the seed's lat_p99_ms at r2
	warmTxns   int64      // closed-loop transactions run before anything is timed
	setup      func(e *env) (*instance, error)
}

// env is what a run hands a workload's setup.
type env struct {
	seed   int64
	tmpDir string // scratch inside the checkout, removed after the run
}

// instance is one loaded system ready to take load.
type instance struct {
	sut     *sut
	streams []stream
	// audit runs after the last phase; an error fails the run.
	audit func() error
	// wire is set by the wire workloads: their connections, and a spare
	// control connection for pings.
	wire []*wireConn
	ctl  *wireConn
	// What the clients did, counted as they go: row bytes written,
	// snapshot reads, scans and the rows they returned, and replies
	// that were not what the audit expects.
	userBytes, snapReads, scans, scanRows, mismatches atomic.Int64
	// recoveryMs is set by commit_file's audit.
	recoveryMs float64
	closers    []func()
}

func (in *instance) close() {
	for i := len(in.closers) - 1; i >= 0; i-- {
		in.closers[i]()
	}
}

func newInstance(s *sut) *instance { return &instance{sut: s, closers: []func(){s.close}} }

var workloads = []workloadDef{
	{name: "wire_read", rates: [3]float64{150000, 300000, 900000}, p99LimitMs: 21, warmTxns: 100000, setup: setupWireRead},
	{name: "wire_txn", rates: [3]float64{140, 280, 520}, p99LimitMs: 50, warmTxns: 200, setup: setupWireTxn},
	{name: "tpcc_lock", rates: [3]float64{300, 600, 1500}, p99LimitMs: 39, warmTxns: 400, setup: setupTPCC},
	{name: "commit_file", rates: [3]float64{6000, 12000, 31000}, p99LimitMs: 48, warmTxns: 4000, setup: setupCommitFile},
	{name: "scan_spill", rates: [3]float64{190, 380, 720}, p99LimitMs: 57, warmTxns: 250, setup: setupScanSpill},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- rows ----

const rowLen = 100

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// fillRow appends the 100-byte row of (key, ver): key, version, then
// filler that depends on both, so a torn or misplaced row never
// compares equal.
func fillRow(dst []byte, key, ver uint64) []byte {
	end := len(dst) + rowLen
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint64(dst, ver)
	r := rnd{key*0x9E3779B97F4A7C15 ^ ver}
	for len(dst) < end {
		dst = binary.LittleEndian.AppendUint64(dst, r.u64())
	}
	return dst[:end]
}

func seedRow(key uint64, buf []byte) []byte { return fillRow(buf, key, 0) }

// baseStream is the part of a stream shared by the synchronous ones.
type baseStream struct{}

func (baseStream) begin(*phase) {}
func (baseStream) drain()       {}
func (baseStream) idle()        {}

// ---- wire_read ----

const kvTable = "kv"
const kvRows = 100_000

func setupWireRead(e *env) (*instance, error) {
	s, err := openSUT(sutConfig{seed: e.seed, poolPages: 8192, serve: true})
	if err != nil {
		return nil, err
	}
	in := newInstance(s)
	tb, err := s.createTable(kvTable)
	if err != nil {
		return in, err
	}
	if err := s.loadRows(tb, kvRows, seedRow); err != nil {
		return in, err
	}
	if err := in.dial(runtime.GOMAXPROCS(0)); err != nil {
		return in, err
	}
	z := newZipf(kvRows, 0.9)
	for _, c := range in.wire {
		in.streams = append(in.streams, &readStream{c: c, z: z, seed: e.seed, in: in})
	}
	in.audit = func() error {
		if n := in.mismatches.Load(); n > 0 {
			return fmt.Errorf("wire_read: %d replies differ from the row seeded for their key", n)
		}
		return nil
	}
	return in, nil
}

// dial opens the workload's n connections — one per thread, which is
// also the server-side concurrency, the server running one goroutine
// per connection — plus one control connection.
func (in *instance) dial(n int) error {
	for i := 0; i <= n; i++ {
		c, err := dialWire(in.sut.addr)
		if err != nil {
			return err
		}
		in.closers = append(in.closers, c.close)
		if i == n {
			in.ctl = c
		} else {
			in.wire = append(in.wire, c)
		}
	}
	return nil
}

// readStream pipelines auto-commit Gets over one connection: the
// generator's goroutine writes, a reader goroutine matches replies to
// arrivals in FIFO order and checks each against the seeded row.
//
// An open phase writes what is due and flushes when nothing more is,
// with at most openWindow requests in flight. A closed phase sends
// batches of exactly closedBatch requests and keeps two in flight: it
// sends the next as soon as no more than one is outstanding. Fixed
// batches make the number of system calls per request, and with it
// peak_tps and cpu_us_per_txn, repeat from run to run.
type readStream struct {
	c    *wireConn
	z    *zipf
	seed int64
	in   *instance
	tl   *spanLog

	inflight    chan pendingRead
	reader      sync.WaitGroup
	payload     []byte
	batched     int // requests put since the last closed-phase flush
	outstanding atomic.Int64
	batchFree   chan struct{} // signalled when outstanding falls to closedBatch
}

const (
	openWindow  = 1024
	closedBatch = 64
)

type pendingRead struct {
	seq  int64
	key  uint64
	sent int64 // ns since the phase began
}

func (r *readStream) setTrace(tl *spanLog) { r.tl = tl }

func (r *readStream) begin(p *phase) {
	r.inflight = make(chan pendingRead, openWindow)
	r.batchFree = make(chan struct{}, 1)
	// Replies complete on the reader goroutine, so in the traced phase
	// it is the one that writes this stream's span log.
	tl := r.tl
	r.reader.Add(1)
	go func() {
		defer r.reader.Done()
		var want []byte
		for pr := range r.inflight {
			st, row, err := r.c.next()
			want = seedRow(pr.key, want[:0])
			ok := err == nil && st == statusOK
			if ok && !bytes.Equal(row, want) {
				r.in.mismatches.Add(1)
				ok = false
			}
			p.finish(pr.seq, ok, 0)
			tl.beginTxn(pr.seq, p.dueNs(pr.seq))
			tl.close(tl.openAt("wire.get", pr.sent))
			tl.endTxn()
			if r.outstanding.Add(-1) == closedBatch {
				select {
				case r.batchFree <- struct{}{}:
				default:
				}
			}
		}
	}()
}

func (r *readStream) issue(p *phase, seq int64) {
	rn := newRnd(r.seed, p.idx, seq)
	// Scatter ranks over the key space so that hot keys are not neighbours.
	key := uint64(r.z.rank(rn.float()))*7919%kvRows + 1
	r.payload = keyPayload(r.payload[:0], kvTable, key)
	pr := pendingRead{seq, key, p.start(seq)}
	r.c.put(0, opGet, r.payload)
	r.outstanding.Add(1)
	select {
	case r.inflight <- pr:
	default:
		r.flush() // or the replies that would free a slot never come
		r.inflight <- pr
	}
	if p.open() {
		if r.c.pending() >= 16<<10 {
			r.flush()
		}
		return
	}
	if r.batched++; r.batched == closedBatch {
		r.batched = 0
		r.flush()
		for r.outstanding.Load() > closedBatch {
			<-r.batchFree
		}
	}
}

func (r *readStream) flush() {
	if err := r.c.flush(); err != nil {
		r.in.mismatches.Add(1) // a broken connection fails the audit
	}
}

func (r *readStream) idle() { r.flush() }

func (r *readStream) drain() {
	r.flush()
	close(r.inflight)
	r.reader.Wait()
}

// ---- wire_txn ----

const acctTable = "acct"
const acctRows = 100_000
const acctStart = 1000

// acctRow is a 100-byte account row: balance, then filler.
func acctRow(dst []byte, key, bal uint64) []byte {
	end := len(dst) + rowLen
	dst = binary.LittleEndian.AppendUint64(dst, bal)
	return fillRow(dst, key, 0)[:end]
}

func setupWireTxn(e *env) (*instance, error) {
	s, err := openSUT(sutConfig{seed: e.seed, poolPages: 8192, serve: true})
	if err != nil {
		return nil, err
	}
	in := newInstance(s)
	tb, err := s.createTable(acctTable)
	if err != nil {
		return in, err
	}
	err = s.loadRows(tb, acctRows, func(key uint64, buf []byte) []byte { return acctRow(buf, key, acctStart) })
	if err != nil {
		return in, err
	}
	if err := in.dial(runtime.GOMAXPROCS(0)); err != nil {
		return in, err
	}
	for i, c := range in.wire {
		in.streams = append(in.streams, &txnStream{
			c: c, in: in, seed: e.seed, part: i, parts: len(in.wire), bal: map[uint64]uint64{},
		})
	}
	in.audit = func() error {
		if n := in.mismatches.Load(); n > 0 {
			return fmt.Errorf("wire_txn: %d reads differ from the balances the client wrote", n)
		}
		sum, rows, err := s.sumColumn(tb, 0)
		if err != nil {
			return err
		}
		if rows != acctRows || sum != acctRows*acctStart {
			return fmt.Errorf("wire_txn: %d rows sum to %d, want %d rows summing to %d",
				rows, sum, acctRows, acctRows*acctStart)
		}
		return nil
	}
	return in, nil
}

// txnStream sends each transfer as one pipelined burst of six frames:
// Begin, Get a, Get b, Update a, Update b, Commit. The server keeps
// executing a burst after one of its statements fails, so a burst may
// only contain statements that cannot conflict with another
// connection's: each connection draws its keys from its own residue
// class (key ≡ part mod parts). It therefore knows every balance it
// reads, which lets it send the updates blind and check the reads.
type txnStream struct {
	baseStream
	c           *wireConn
	in          *instance
	tl          *spanLog
	seed        int64
	part, parts int
	bal         map[uint64]uint64 // balances this connection has changed
	pa, pb, pl  []byte            // payload scratch
	row         []byte
}

func (t *txnStream) setTrace(tl *spanLog) { t.tl = tl }

func (t *txnStream) balance(key uint64) uint64 {
	if b, ok := t.bal[key]; ok {
		return b
	}
	return acctStart
}

func (t *txnStream) key(rn *rnd) uint64 {
	per := acctRows / t.parts
	return uint64(rn.intn(per)*t.parts+t.part) + 1
}

func (t *txnStream) issue(p *phase, seq int64) {
	rn := newRnd(t.seed, p.idx, seq)
	a, b := t.key(&rn), t.key(&rn)
	for b == a {
		b = t.key(&rn)
	}
	if a > b {
		a, b = b, a
	}
	amt := uint64(rn.intn(10) + 1)
	t.tl.beginTxn(seq, p.dueNs(seq))
	p.start(seq)
	ok := t.transfer(a, b, amt)
	p.finish(seq, ok, 0)
	t.tl.endTxn()
}

func (t *txnStream) transfer(a, b, amt uint64) bool {
	ba, bb := t.balance(a), t.balance(b)
	if ba < amt {
		a, b, ba, bb = b, a, bb, ba
	}
	amt = min(amt, ba)
	t.pa = keyPayload(t.pa[:0], acctTable, a)
	t.pb = keyPayload(t.pb[:0], acctTable, b)
	i := t.tl.open("wire.txn")
	defer t.tl.close(i)
	t.c.put(0, opBegin, nil)
	t.c.put(0, opGet, t.pa)
	t.c.put(0, opGet, t.pb)
	t.row = acctRow(t.row[:0], a, ba-amt)
	t.pl = rowPayload(t.pl[:0], acctTable, a, t.row)
	t.c.put(0, opUpdate, t.pl)
	t.row = acctRow(t.row[:0], b, bb+amt)
	t.pl = rowPayload(t.pl[:0], acctTable, b, t.row)
	t.c.put(0, opUpdate, t.pl)
	t.c.put(0, opCommit, nil)
	if err := t.c.flush(); err != nil {
		return false
	}
	allOK := true
	for f := 0; f < 6; f++ {
		st, payload, err := t.c.next()
		if err != nil {
			return false
		}
		if st != statusOK {
			allOK = false
		}
		if st == statusOK && (f == 1 || f == 2) { // the two reads
			want := ba
			if f == 2 {
				want = bb
			}
			if len(payload) != rowLen || le64(payload) != want {
				t.in.mismatches.Add(1)
			}
		}
	}
	if !allOK {
		// Some statement was refused; whatever the burst left open is
		// rolled back, and the two balances are unknown until re-read.
		t.c.put(0, opRollback, nil)
		_ = t.c.flush() // the read below reports a broken connection
		_, _, _ = t.c.next()
		t.resync(a)
		t.resync(b)
		return false
	}
	t.bal[a], t.bal[b] = ba-amt, bb+amt
	t.in.userBytes.Add(2 * rowLen)
	return true
}

func (t *txnStream) resync(key uint64) {
	t.c.put(0, opGet, keyPayload(nil, acctTable, key))
	if t.c.flush() != nil {
		return
	}
	if st, payload, err := t.c.next(); err == nil && st == statusOK && len(payload) == rowLen {
		t.bal[key] = le64(payload)
	}
}

// ---- tpcc_lock ----

func setupTPCC(e *env) (*instance, error) {
	s, err := openSUT(sutConfig{seed: e.seed, poolPages: 4096, vats: true})
	if err != nil {
		return nil, err
	}
	in := newInstance(s)
	w, err := s.loadTPCC(2)
	if err != nil {
		return in, err
	}
	for i := 0; i < 32; i++ {
		t, err := s.newTPCCTerminal(w, e.seed*1000+int64(i)+1)
		if err != nil {
			return in, err
		}
		in.streams = append(in.streams, &tpccStream{t: t})
	}
	in.audit = s.checkInvariants
	return in, nil
}

type tpccStream struct {
	baseStream
	t *tpccTerminal
}

func (t *tpccStream) setTrace(tl *spanLog) { t.t.tl = tl }

func (t *tpccStream) issue(p *phase, seq int64) {
	t.t.tl.beginTxn(seq, p.dueNs(seq))
	p.start(seq)
	err := t.t.run()
	p.finish(seq, err == nil, 0)
	t.t.tl.endTxn()
}

// ---- commit_file ----

const committers = 64

func setupCommitFile(e *env) (*instance, error) {
	logPath := filepath.Join(e.tmpDir, "commit.wal")
	s, err := openSUT(sutConfig{seed: e.seed, poolPages: 8192, logPath: logPath})
	if err != nil {
		return nil, err
	}
	in := newInstance(s)
	in.closers = append(in.closers, func() {
		os.Remove(logPath)
		os.Remove(logPath + ".pages")
	})
	tb, err := s.createTable(kvTable)
	if err != nil {
		return in, err
	}
	if err := s.loadRows(tb, kvRows, seedRow); err != nil {
		return in, err
	}
	// acked[key] is the last version whose commit the committer saw
	// acknowledged. Each key has one writer (key ≡ committer mod 64),
	// so versions of a key commit in order.
	acked := make([]atomic.Uint64, kvRows+1)
	var version atomic.Uint64
	for i := 0; i < committers; i++ {
		in.streams = append(in.streams, &commitStream{
			t: s.newTerminal(), tb: tb, in: in, seed: e.seed, part: i, acked: acked, version: &version,
		})
	}
	in.audit = func() error {
		fresh, took, err := s.crashRecover([]string{kvTable}, 8192)
		if err != nil {
			return err
		}
		defer fresh.close()
		in.recoveryMs = ms(took)
		ftb, _ := fresh.db.Table(kvTable)
		rd := fresh.newTerminal()
		last := version.Load()
		for key := uint64(1); key <= kvRows; key++ {
			row, err := rd.snapGet(ftb, key)
			if err != nil {
				return fmt.Errorf("commit_file: key %d after recovery: %w", key, err)
			}
			got, want := le64(row[8:]), acked[key].Load()
			if le64(row) != key || got < want || got > last {
				return fmt.Errorf("commit_file: key %d recovered at version %d, acknowledged %d, last issued %d",
					key, got, want, last)
			}
		}
		return nil
	}
	return in, nil
}

type commitStream struct {
	baseStream
	t       *terminal
	tb      *table
	in      *instance
	seed    int64
	part    int
	acked   []atomic.Uint64
	version *atomic.Uint64
	row     []byte
}

func (c *commitStream) setTrace(tl *spanLog) { c.t.setTrace(tl) }

func (c *commitStream) issue(p *phase, seq int64) {
	rn := newRnd(c.seed, p.idx, seq)
	key := uint64(rn.intn(kvRows/committers)*committers+c.part) + 1
	c.t.tl.beginTxn(seq, p.dueNs(seq))
	p.start(seq)
	ver := c.version.Add(1)
	c.row = fillRow(c.row[:0], key, ver)
	retries, err := c.t.txn(func() error { return c.t.update(c.tb, key, c.row) })
	if err == nil {
		c.acked[key].Store(ver)
		c.in.userBytes.Add(rowLen)
	}
	p.finish(seq, err == nil, retries)
	c.t.tl.endTxn()
}

// txn runs body in a transaction, retrying deadlock and lock-timeout
// victims up to three times.
func (t *terminal) txn(body func() error) (retries int, err error) {
	for {
		t.begin()
		if err = body(); err == nil {
			err = t.commit()
		} else {
			t.rollback()
		}
		if err == nil || !isRetryable(err) || retries == 3 {
			return retries, err
		}
		retries++
	}
}

// ---- scan_spill ----

const spillRows = 40_000
const scanLen = 100

func setupScanSpill(e *env) (*instance, error) {
	s, err := openSUT(sutConfig{seed: e.seed, poolPages: 128})
	if err != nil {
		return nil, err
	}
	in := newInstance(s)
	tb, err := s.createTable(kvTable)
	if err != nil {
		return in, err
	}
	if err := s.loadRows(tb, spillRows, seedRow); err != nil {
		return in, err
	}
	for i := 0; i < 8; i++ {
		in.streams = append(in.streams, &spillStream{t: s.newTerminal(), tb: tb, in: in, seed: e.seed})
	}
	in.audit = func() error {
		if n := in.mismatches.Load(); n > 0 {
			return fmt.Errorf("scan_spill: %d reads or scans returned the wrong keys or row count", n)
		}
		return nil
	}
	return in, nil
}

type spillStream struct {
	baseStream
	t    *terminal
	tb   *table
	in   *instance
	seed int64
	row  []byte
}

func (s *spillStream) setTrace(tl *spanLog) { s.t.setTrace(tl) }

var errWrongRows = errors.New("wrong rows")

func (s *spillStream) issue(p *phase, seq int64) {
	rn := newRnd(s.seed, p.idx, seq)
	kind := rn.intn(10)
	s.t.tl.beginTxn(seq, p.dueNs(seq))
	p.start(seq)
	var err error
	retries := 0
	switch {
	case kind < 7: // snapshot point read
		key := uint64(rn.intn(spillRows)) + 1
		var row []byte
		row, err = s.t.snapGet(s.tb, key)
		s.in.snapReads.Add(1)
		if err == nil && (len(row) != rowLen || le64(row) != key) {
			err = errWrongRows
		}
	case kind < 9: // 100-row range scan beside the writers
		lo := uint64(rn.intn(spillRows-scanLen)) + 1
		n, inOrder := 0, true
		err = s.t.scan(s.tb, lo, lo+scanLen-1, scanLen, func(key uint64, row []byte) {
			inOrder = inOrder && key == lo+uint64(n) && len(row) == rowLen && le64(row) == key
			n++
		})
		s.in.scans.Add(1)
		s.in.scanRows.Add(int64(n))
		if err == nil && !(inOrder && n == scanLen) {
			err = errWrongRows
		}
	default: // update
		key := uint64(rn.intn(spillRows)) + 1
		s.row = fillRow(s.row[:0], key, uint64(seq)+1)
		retries, err = s.t.txn(func() error { return s.t.update(s.tb, key, s.row) })
		if err == nil {
			s.in.userBytes.Add(rowLen)
		}
	}
	if errors.Is(err, errWrongRows) {
		s.in.mismatches.Add(1)
	}
	p.finish(seq, err == nil, retries)
	s.t.tl.endTxn()
}
