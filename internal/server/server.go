package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/admit"
	"vats/internal/engine"
	"vats/internal/obs"
	"vats/internal/storage"
)

// Config configures a Server.
type Config struct {
	// Admit configures the admission controller; Metrics is wired by
	// the server (the engine's obs registry) and need not be set.
	Admit admit.Config
	// ScanLimit caps rows per OpScan response (default 1000).
	ScanLimit int
	// SimExecDelay adds a fixed simulated execution cost to every
	// admitted request while its slot is held — the same trick the
	// disk package uses to model device latency. It pins the M/G/c
	// service time exactly, which the overload experiments and
	// benchmarks need to produce reproducible queueing behaviour on
	// arbitrary hosts. Zero (the default) disables it.
	SimExecDelay time.Duration
}

// Server serves the wire protocol over any net.Listener, mapping each
// connection onto one engine Session and each stream onto a logical
// session multiplexed over that connection.
type Server struct {
	db  *engine.DB
	adm *admit.Controller
	met *obs.NetMetrics
	cfg Config

	mu     sync.Mutex
	lns    []net.Listener
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	sessions atomic.Int64
	nconns   atomic.Int64
}

// New builds a server over an open engine. Call Listen (or Serve) to
// start accepting, and Close to shut down.
func New(db *engine.DB, cfg Config) *Server {
	if cfg.ScanLimit <= 0 {
		cfg.ScanLimit = 1000
	}
	met := obs.NewNetMetrics(db.Obs(), admit.ClassNames()...)
	cfg.Admit.Metrics = met
	return &Server{
		db:    db,
		adm:   admit.New(cfg.Admit),
		met:   met,
		cfg:   cfg,
		conns: make(map[*conn]struct{}),
	}
}

// Admitter exposes the admission controller (for stats and tests).
func (s *Server) Admitter() *admit.Controller { return s.adm }

// Listen starts accepting on network/addr ("tcp", "127.0.0.1:0" or
// "unix", "/tmp/vatsd.sock") and returns the bound address.
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, admit.ErrClosed
	}
	s.lns = append(s.lns, ln)
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Serve accepts connections from ln until it or the server closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close()
			return nil
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.run()
		}()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) newConn(nc net.Conn) *conn {
	c := &conn{
		srv:     s,
		nc:      nc,
		sess:    s.db.NewSession(),
		streams: map[uint32]*stream{0: {}}, // stream 0: implicit control session
		tables:  make(map[string]*storage.Table),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.nconns.Add(1)
	s.met.ConnDelta(1)
	return c
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	_, ok := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if ok {
		s.nconns.Add(-1)
		s.met.ConnDelta(-1)
	}
}

// Sessions returns the number of open logical sessions (streams),
// excluding each connection's implicit stream 0.
func (s *Server) Sessions() int64 { return s.sessions.Load() }

// Conns returns the number of open connections.
func (s *Server) Conns() int64 { return s.nconns.Load() }

// Close shuts the server down: listeners stop, connections drop,
// queued admissions fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lns := s.lns
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close()
	}
	s.adm.Close()
	s.wg.Wait()
}

// stream is one logical session multiplexed over a connection: an
// admission class and at most one open transaction. At ~48 bytes plus
// a map slot, 100k idle sessions cost a few megabytes — this is what
// lets one process hold 100k+ open sessions under a 20k-fd rlimit.
type stream struct {
	class admit.Class
	txn   *engine.Txn
	// failed: a statement of the explicit transaction failed and the
	// server rolled it back. The client may have pipelined the rest of
	// the transaction already, so every statement up to the Commit or
	// Rollback that ends it is refused — none may run on its own, and
	// the Commit must not report success.
	failed bool
}

const msgTxnFailed = "transaction rolled back: an earlier statement failed"

// conn is one connection's state, owned by a single goroutine: reads
// are decoded in place from rbuf, responses accumulate in wbuf and
// flush when the pipeline drains (preserving FIFO response order).
type conn struct {
	srv     *Server
	nc      net.Conn
	sess    *engine.Session
	streams map[uint32]*stream
	tables  map[string]*storage.Table

	rbuf       []byte
	rpos, rend int
	wbuf       []byte
	scratch    []byte

	// shedLost accumulates queue wait lost to shed attempts on this
	// connection; the next admitted transaction absorbs it as the
	// net.shed variance factor.
	shedLost time.Duration
}

func (c *conn) run() {
	defer c.close()
	for {
		f, n, err := DecodeFrame(c.rbuf[c.rpos:c.rend])
		switch err {
		case nil:
			c.rpos += n
			if !c.handleFrame(f) {
				return
			}
			// Flush once the pipeline drains, or when the write buffer
			// is large enough that batching stops paying.
			if (c.rpos == c.rend || len(c.wbuf) > 64<<10) && !c.flush() {
				return
			}
		case ErrShortFrame:
			if !c.fill() {
				return
			}
		default: // bad magic, bad CRC, oversized: the stream is unrecoverable
			c.srv.met.BadFrame()
			return
		}
	}
}

// fill compacts rbuf and reads more bytes; false means EOF/error.
func (c *conn) fill() bool {
	if c.rpos > 0 {
		copy(c.rbuf, c.rbuf[c.rpos:c.rend])
		c.rend -= c.rpos
		c.rpos = 0
	}
	if c.rend == len(c.rbuf) {
		// Frame is bigger than the buffer; grow toward MaxFrame. Idle
		// connections that never see large frames stay at 512 bytes.
		n := len(c.rbuf) * 2
		if n == 0 {
			n = 512
		}
		if n > MaxFrame {
			n = MaxFrame
		}
		nb := make([]byte, n)
		copy(nb, c.rbuf[:c.rend])
		c.rbuf = nb
	}
	n, err := c.nc.Read(c.rbuf[c.rend:])
	c.rend += n
	return n > 0 || err == nil
}

func (c *conn) flush() bool {
	if len(c.wbuf) == 0 {
		return true
	}
	_, err := c.nc.Write(c.wbuf)
	// A response burst can be large (scans); don't pin the high-water
	// capacity on an idle connection.
	if cap(c.wbuf) > 64<<10 {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	return err == nil
}

func (c *conn) close() {
	for _, st := range c.streams {
		if st.txn != nil {
			st.txn.Rollback()
			st.txn = nil
		}
	}
	n := int64(len(c.streams)) - 1 // stream 0 is not a counted session
	if n > 0 {
		c.srv.sessions.Add(-n)
		c.srv.met.SessionDelta(-n)
	}
	c.nc.Close()
	c.srv.dropConn(c)
}

// ---- response building ----

func (c *conn) begin(streamID uint32, status uint8) int {
	off := len(c.wbuf)
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, Magic)
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, streamID)
	c.wbuf = append(c.wbuf, status, 0)
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, 0) // plen, patched in end
	return off
}

func (c *conn) end(off int) {
	binary.LittleEndian.PutUint32(c.wbuf[off+10:], uint32(len(c.wbuf)-off-headerSize))
	crc := crc32.ChecksumIEEE(c.wbuf[off:])
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, crc)
}

func (c *conn) reply(streamID uint32, status uint8) {
	c.end(c.begin(streamID, status))
}

func (c *conn) replyMsg(streamID uint32, status uint8, msg string) {
	off := c.begin(streamID, status)
	c.wbuf = append(c.wbuf, msg...)
	c.end(off)
}

func (c *conn) replyErr(streamID uint32, err error) {
	switch {
	case errors.Is(err, storage.ErrKeyNotFound):
		c.reply(streamID, StatusNotFound)
	case engine.IsRetryable(err):
		c.replyMsg(streamID, StatusRetry, err.Error())
	default:
		c.replyMsg(streamID, StatusErr, err.Error())
	}
}

// stmtErr answers a statement that returned err. Inside an open
// transaction any error but not-found — an answer, not a failure — rolls
// the transaction back and leaves the stream failed (see stream).
func (c *conn) stmtErr(streamID uint32, st *stream, err error) {
	c.replyErr(streamID, err)
	if st.txn == nil || errors.Is(err, storage.ErrKeyNotFound) {
		return
	}
	st.txn.Rollback()
	st.txn = nil
	st.failed = true
}

// table resolves a table name (a payload byte view) through the
// connection's cache; the map lookup on string(name) does not allocate.
func (c *conn) table(name []byte) (*storage.Table, bool) {
	if t, ok := c.tables[string(name)]; ok {
		return t, true
	}
	t, ok := c.db().Table(string(name))
	if ok {
		c.tables[string(name)] = t
	}
	return t, ok
}

func (c *conn) db() *engine.DB { return c.srv.db }

// classFor resolves the admission class for a request: a per-request
// flag override, else the stream's class.
func classFor(st *stream, flags uint8) admit.Class {
	if f := flags & flagClassMask; f != 0 {
		return admit.Class(f - 1)
	}
	return st.class
}

// admitFor gates one engine-executing request. ok=false means a
// response (shed/closed) has been written and the caller must not
// execute; otherwise the caller must call c.srv.adm.Release() after
// the request executes.
func (c *conn) admitFor(streamID uint32, st *stream, flags uint8) (wait time.Duration, ok bool) {
	wait, err := c.srv.adm.Admit(classFor(st, flags))
	switch err {
	case nil:
		if d := c.srv.cfg.SimExecDelay; d > 0 {
			time.Sleep(d)
		}
		return wait, true
	case admit.ErrShed:
		c.shedLost += wait
		c.reply(streamID, StatusShed)
	default:
		c.replyMsg(streamID, StatusErr, "server shutting down")
	}
	return 0, false
}

// recordAdmission attributes admission-queue time to a transaction as
// first-class variance factors: this request's queue wait, plus any
// wait previously lost to shedding on this connection.
func (c *conn) recordAdmission(tx *engine.Txn, wait time.Duration) {
	tx.RecordNetQueueWait(wait)
	if c.shedLost > 0 {
		tx.RecordNetShed(c.shedLost)
		c.shedLost = 0
	}
}

// handleFrame executes one request and appends its response to wbuf.
// false tears the connection down (protocol-fatal request).
func (c *conn) handleFrame(f Frame) bool {
	c.srv.met.Request()
	st, known := c.streams[f.Stream]
	if !known && f.Op != OpOpenSession {
		c.replyMsg(f.Stream, StatusBad, "unknown stream")
		return true
	}
	if known && st.failed {
		switch f.Op {
		case OpRollback:
			st.failed = false
			c.reply(f.Stream, StatusOK)
			return true
		case OpCommit:
			st.failed = false
			fallthrough
		case OpBegin, OpGet, OpInsert, OpUpdate, OpDelete, OpScan:
			c.replyMsg(f.Stream, StatusErr, msgTxnFailed)
			return true
		}
	}
	switch f.Op {
	case OpHello:
		p := payloadReader{b: f.Payload}
		v := p.u8()
		if !p.ok() || v != ProtoVersion {
			c.replyMsg(f.Stream, StatusBad, "bad hello")
			return true
		}
		off := c.begin(f.Stream, StatusOK)
		c.wbuf = append(c.wbuf, ProtoVersion)
		c.end(off)

	case OpPing:
		off := c.begin(f.Stream, StatusOK)
		c.wbuf = append(c.wbuf, f.Payload...)
		c.end(off)

	case OpOpenSession:
		p := payloadReader{b: f.Payload}
		cl := p.u8()
		if !p.ok() || cl >= uint8(admit.NumClasses) {
			c.replyMsg(f.Stream, StatusBad, "bad open")
			return true
		}
		if known || f.Stream == 0 {
			c.replyMsg(f.Stream, StatusBad, "stream in use")
			return true
		}
		c.streams[f.Stream] = &stream{class: admit.Class(cl)}
		c.srv.sessions.Add(1)
		c.srv.met.SessionDelta(1)
		c.reply(f.Stream, StatusOK)

	case OpCloseSession:
		if f.Stream == 0 {
			c.replyMsg(f.Stream, StatusBad, "cannot close stream 0")
			return true
		}
		if st.txn != nil {
			st.txn.Rollback()
			st.txn = nil
		}
		delete(c.streams, f.Stream)
		c.srv.sessions.Add(-1)
		c.srv.met.SessionDelta(-1)
		c.reply(f.Stream, StatusOK)

	case OpCreateTable:
		p := payloadReader{b: f.Payload}
		name := p.str16()
		if !p.ok() || len(name) == 0 {
			c.replyMsg(f.Stream, StatusBad, "bad create")
			return true
		}
		if _, err := c.db().CreateTable(string(name)); err != nil {
			c.replyErr(f.Stream, err)
			return true
		}
		c.reply(f.Stream, StatusOK)

	case OpBegin:
		if st.txn != nil {
			c.replyMsg(f.Stream, StatusBad, "transaction already open")
			return true
		}
		wait, ok := c.admitFor(f.Stream, st, f.Flags)
		if !ok {
			return true
		}
		tx := c.sess.Begin()
		c.recordAdmission(tx, wait)
		st.txn = tx
		c.srv.adm.Release()
		c.reply(f.Stream, StatusOK)

	case OpCommit:
		if st.txn == nil {
			c.replyMsg(f.Stream, StatusBad, "no open transaction")
			return true
		}
		tx := st.txn
		st.txn = nil
		if err := tx.Commit(); err != nil {
			c.replyErr(f.Stream, err)
			return true
		}
		off := c.begin(f.Stream, StatusOK)
		c.wbuf = binary.LittleEndian.AppendUint64(c.wbuf, tx.CommitTS())
		c.end(off)

	case OpRollback:
		if st.txn == nil {
			c.replyMsg(f.Stream, StatusBad, "no open transaction")
			return true
		}
		st.txn.Rollback()
		st.txn = nil
		c.reply(f.Stream, StatusOK)

	case OpGet:
		p := payloadReader{b: f.Payload}
		name := p.str16()
		key := p.u64()
		if !p.ok() {
			c.replyMsg(f.Stream, StatusBad, "bad get")
			return true
		}
		t, found := c.table(name)
		if !found {
			c.replyMsg(f.Stream, StatusBad, "no such table")
			return true
		}
		if st.txn != nil {
			row, err := st.txn.Get(t, key)
			if err != nil {
				c.stmtErr(f.Stream, st, err)
				return true
			}
			off := c.begin(f.Stream, StatusOK)
			c.wbuf = append(c.wbuf, row...)
			c.end(off)
			return true
		}
		// Auto-commit read: a zero-lock snapshot read, gated by admission.
		_, ok := c.admitFor(f.Stream, st, f.Flags)
		if !ok {
			return true
		}
		snap := c.sess.BeginSnapshot()
		row, err := snap.GetInto(t, key, c.scratch[:0])
		snap.Close()
		c.srv.adm.Release()
		if err != nil {
			c.replyErr(f.Stream, err)
			return true
		}
		c.scratch = row[:0]
		off := c.begin(f.Stream, StatusOK)
		c.wbuf = append(c.wbuf, row...)
		c.end(off)

	case OpInsert, OpUpdate, OpDelete:
		p := payloadReader{b: f.Payload}
		name := p.str16()
		key := p.u64()
		var row []byte
		if f.Op != OpDelete {
			row = p.bytes32()
		}
		if !p.ok() {
			c.replyMsg(f.Stream, StatusBad, "bad write")
			return true
		}
		t, found := c.table(name)
		if !found {
			c.replyMsg(f.Stream, StatusBad, "no such table")
			return true
		}
		if st.txn != nil {
			if err := applyWrite(st.txn, f.Op, t, key, row); err != nil {
				c.stmtErr(f.Stream, st, err)
				return true
			}
			c.reply(f.Stream, StatusOK)
			return true
		}
		// Auto-commit write: one-op transaction with bounded retries.
		wait, ok := c.admitFor(f.Stream, st, f.Flags)
		if !ok {
			return true
		}
		err := c.sess.RunTxn(3, func(tx *engine.Txn) error {
			c.recordAdmission(tx, wait)
			return applyWrite(tx, f.Op, t, key, row)
		})
		c.srv.adm.Release()
		if err != nil {
			c.replyErr(f.Stream, err)
			return true
		}
		c.reply(f.Stream, StatusOK)

	case OpScan:
		p := payloadReader{b: f.Payload}
		name := p.str16()
		lo := p.u64()
		hi := p.u64()
		limit := int(p.u32())
		if !p.ok() {
			c.replyMsg(f.Stream, StatusBad, "bad scan")
			return true
		}
		if limit <= 0 || limit > c.srv.cfg.ScanLimit {
			limit = c.srv.cfg.ScanLimit
		}
		t, found := c.table(name)
		if !found {
			c.replyMsg(f.Stream, StatusBad, "no such table")
			return true
		}
		// Admit before the response frame starts so a shed reply never
		// lands behind a half-built OK frame.
		admitted := false
		if st.txn == nil {
			if _, ok := c.admitFor(f.Stream, st, f.Flags); !ok {
				return true
			}
			admitted = true
		}
		off := c.begin(f.Stream, StatusOK)
		cntAt := len(c.wbuf)
		c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, 0)
		n := uint32(0)
		emit := func(key uint64, row []byte) bool {
			c.wbuf = binary.LittleEndian.AppendUint64(c.wbuf, key)
			c.wbuf = AppendBytes32(c.wbuf, row)
			n++
			return int(n) < limit
		}
		var err error
		if st.txn != nil {
			err = st.txn.Scan(t, lo, hi, emit)
		} else {
			snap := c.sess.BeginSnapshot()
			err = snap.Scan(t, lo, hi, emit)
			snap.Close()
		}
		if admitted {
			c.srv.adm.Release()
		}
		if err != nil {
			c.wbuf = c.wbuf[:off]
			c.stmtErr(f.Stream, st, err)
			return true
		}
		binary.LittleEndian.PutUint32(c.wbuf[cntAt:], n)
		c.end(off)

	default:
		c.replyMsg(f.Stream, StatusBad, "unknown opcode")
	}
	return true
}

func applyWrite(tx *engine.Txn, op uint8, t *storage.Table, key uint64, row []byte) error {
	switch op {
	case OpInsert:
		return tx.Insert(t, key, row)
	case OpUpdate:
		return tx.Update(t, key, row)
	default:
		return tx.Delete(t, key)
	}
}
