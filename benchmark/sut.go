package main

// sut.go is the only file of the benchmark that imports the system
// under test. Everything the benchmark needs from it — opening an
// engine over timed devices, the in-process terminal operations, the
// wire codec, the layer counters, the obs sensor and crash recovery —
// goes through the small set of functions below, so the API surface a
// later PR must keep stable (or adapt here) is explicit.

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/exec"
	"vats/internal/lock"
	"vats/internal/obs"
	"vats/internal/server"
	"vats/internal/storage"
	"vats/internal/wal"
	"vats/internal/workload"
)

type table = storage.Table

// sutConfig is what a workload chooses about the system it runs on.
type sutConfig struct {
	seed      int64
	poolPages int
	vats      bool   // lock.VATS{} instead of the FCFS default
	logPath   string // non-empty: the log lives on a real file, one fdatasync per sync
	serve     bool   // front the engine with a server.Server on TCP loopback
}

// sut is one running instance of the system: engine, its two timed
// devices, its own obs bundle (off until the traced phase) and, for
// the wire workloads, the server.
type sut struct {
	db   *engine.DB
	ob   *obs.Obs
	log  *timedDev
	data *timedDev
	srv  *server.Server
	addr string
}

func openSUT(cfg sutConfig) (*sut, error) {
	s := &sut{ob: obs.New()}
	s.ob.SetEnabled(false)

	dc := disk.DefaultConfig("data", cfg.seed+1)
	dc.MedianLatency = 120 * time.Microsecond
	s.data = newTimedDev(disk.New(dc), "data")
	if cfg.logPath != "" {
		f, err := disk.OpenFile(disk.FileConfig{
			Path:          cfg.logPath,
			Name:          "log",
			Mode:          disk.FdatasyncPerSync,
			PreallocBytes: 64 << 20,
		})
		if err != nil {
			return nil, err
		}
		s.log = newTimedDev(f, "log")
	} else {
		s.log = newTimedDev(disk.New(disk.DefaultConfig("log", cfg.seed+2)), "log")
	}

	ec := engine.Config{
		BufferCapacity: cfg.poolPages,
		DataDevice:     s.data,
		LogDevices:     []disk.Device{s.log},
		FlushPolicy:    wal.EagerFlush,
		Obs:            s.ob,
		Seed:           cfg.seed,
	}
	if cfg.vats {
		ec.Scheduler = lock.VATS{}
	}
	s.db = engine.Open(ec)

	if cfg.serve {
		s.srv = server.New(s.db, server.Config{})
		addr, err := s.srv.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.addr = addr.String()
	}
	return s, nil
}

func (s *sut) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.db.Close()
	_ = s.log.Close() // the run is over; nothing durable depends on this close
	_ = s.data.Close()
}

// setTracing switches the system's own sensor (obs) and the device
// span capture on (dl non-nil) or off together.
func (s *sut) setTracing(dl *devLog) {
	s.ob.SetEnabled(dl != nil)
	s.log.spans.Store(dl)
	s.data.spans.Store(dl)
}

func (s *sut) createTable(name string) (*table, error) { return s.db.CreateTable(name) }

// loadRows inserts keys 1..n in batches of 2000 rows per transaction,
// one loader per thread.
func (s *sut) loadRows(t *table, n int, row func(key uint64, buf []byte) []byte) error {
	const batch = 2000
	loaders := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	errs := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		go func() {
			sess := s.db.NewSession()
			var buf []byte
			for {
				lo := int(next.Add(batch)) - batch
				if lo >= n {
					errs <- nil
					return
				}
				hi := min(lo+batch, n)
				err := sess.RunTxn(5, func(tx *engine.Txn) error {
					for k := lo + 1; k <= hi; k++ {
						buf = row(uint64(k), buf[:0])
						if err := tx.Insert(t, uint64(k), buf); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs <- fmt.Errorf("load %s rows %d..%d: %w", t.Name(), lo+1, hi, err)
					return
				}
			}
		}()
	}
	var first error
	for l := 0; l < loaders; l++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- in-process terminals ----

// terminal is one in-process client: an engine session plus the span
// log of the traced phase (nil otherwise). Every call into the engine
// goes through one of its methods, which is where the benchmark's
// spans are taken.
type terminal struct {
	sess *engine.Session
	tx   *engine.Txn
	tl   *spanLog
	buf  []byte
}

func (s *sut) newTerminal() *terminal { return &terminal{sess: s.db.NewSession()} }

func (t *terminal) setTrace(tl *spanLog) { t.tl = tl }

func (t *terminal) begin() {
	i := t.tl.open("engine.begin")
	t.tx = t.sess.Begin()
	t.tl.close(i)
}

// get reads under the open transaction (shared lock). The returned row
// is only valid until the terminal's next call.
func (t *terminal) get(tb *table, key uint64) ([]byte, error) {
	i := t.tl.open("engine.read")
	row, err := t.tx.Get(tb, key)
	t.tl.close(i)
	return row, err
}

func (t *terminal) update(tb *table, key uint64, row []byte) error {
	i := t.tl.open("engine.write")
	err := t.tx.Update(tb, key, row)
	t.tl.close(i)
	return err
}

func (t *terminal) commit() error {
	i := t.tl.open("engine.commit")
	err := t.tx.Commit()
	t.tl.close(i)
	t.tx = nil
	return err
}

func (t *terminal) rollback() {
	t.tx.Rollback()
	t.tx = nil
}

// snapGet is a lock-free snapshot read of one row.
func (t *terminal) snapGet(tb *table, key uint64) ([]byte, error) {
	i := t.tl.open("engine.read")
	snap := t.sess.BeginSnapshot()
	row, err := snap.GetInto(tb, key, t.buf[:0])
	snap.Close()
	t.tl.close(i)
	if err == nil {
		t.buf = row[:0]
	}
	return row, err
}

// scan streams up to limit rows of [lo, hi] through the exec iterator
// at a fresh snapshot, calling fn for each.
func (t *terminal) scan(tb *table, lo, hi uint64, limit int, fn func(key uint64, row []byte)) error {
	i := t.tl.open("exec.scan")
	snap := t.sess.BeginSnapshot()
	it := exec.Limit(exec.NewTableScan(snap, tb, lo, hi), limit)
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		fn(r.Key, r.Data)
	}
	err := it.Err()
	snap.Close()
	t.tl.close(i)
	return err
}

func isRetryable(err error) bool { return engine.IsRetryable(err) }

// tpccTerminal is one TPC-C terminal of the system's own workload
// package: a whole transaction per call, retries inside.
type tpccTerminal struct {
	c  workload.Client
	tl *spanLog
}

func (s *sut) loadTPCC(warehouses int) (*workload.TPCC, error) {
	w := workload.NewTPCC(workload.TPCCConfig{Warehouses: warehouses})
	return w, w.Load(s.db)
}

func (s *sut) newTPCCTerminal(w *workload.TPCC, seed int64) (*tpccTerminal, error) {
	c, err := w.NewClient(s.db, seed)
	if err != nil {
		return nil, err
	}
	return &tpccTerminal{c: c}, nil
}

func (t *tpccTerminal) run() error {
	i := t.tl.open("engine.txn")
	_, err := t.c.Run()
	t.tl.close(i)
	return err
}

func (s *sut) checkInvariants() error { return s.db.CheckInvariants() }

// sumColumn adds the little-endian u64 at byte offset off of every row
// of the table, at one snapshot.
func (s *sut) sumColumn(tb *table, off int) (sum uint64, rows int, err error) {
	snap := s.db.NewSession().BeginSnapshot()
	defer snap.Close()
	err = snap.Scan(tb, 0, ^uint64(0), func(_ uint64, row []byte) bool {
		sum += le64(row[off:])
		rows++
		return true
	})
	return sum, rows, err
}

// crashRecover crashes the engine, rebuilds a fresh one from the bytes
// the log device holds durably, and returns it with the time recovery
// took. The crashed instance's devices stay open until s.close.
func (s *sut) crashRecover(tables []string, poolPages int) (*sut, time.Duration, error) {
	s.db.Crash()
	start := time.Now()
	entries := wal.RecoverDeviceEntries(s.db.Log().Devices()...)
	fresh, err := openSUT(sutConfig{seed: 1, poolPages: poolPages})
	if err != nil {
		return nil, 0, err
	}
	for _, name := range tables {
		if _, err := fresh.createTable(name); err != nil {
			fresh.close()
			return nil, 0, err
		}
	}
	if err := fresh.db.Recover(entries); err != nil {
		fresh.close()
		return nil, 0, fmt.Errorf("recover %d entries: %w", len(entries), err)
	}
	return fresh, time.Since(start), nil
}

// ---- layer counters ----

// counters is a flat snapshot of every layer's public Stats(), taken at
// phase boundaries and diffed.
type counters map[string]float64

func (a counters) sub(b counters) counters {
	d := make(counters, len(a))
	for k, v := range a {
		d[k] = v - b[k]
	}
	return d
}

func (s *sut) counters() counters {
	c := counters{}
	ls := s.db.Locks().Stats()
	c["lock.acquires"] = float64(ls.Acquires)
	c["lock.waits"] = float64(ls.Waits)
	c["lock.wait_ns"] = float64(ls.WaitTime)
	c["lock.deadlocks"] = float64(ls.Deadlocks)
	c["lock.timeouts"] = float64(ls.Timeouts)
	c["lock.upgrade_waits"] = float64(ls.UpgradeWaits)

	bs := s.db.Pool().Stats()
	c["buffer.hits"] = float64(bs.Hits)
	c["buffer.misses"] = float64(bs.Misses)
	c["buffer.evictions"] = float64(bs.Evictions)
	c["buffer.writebacks"] = float64(bs.WriteBacks)
	c["buffer.mutex_wait_ns"] = float64(bs.Mutex.WaitTime)

	ws := s.db.Log().Stats()
	c["wal.appends"] = float64(ws.Appends)
	c["wal.flushes"] = float64(ws.Flushes)
	c["wal.bytes"] = float64(ws.Bytes)
	c["wal.grouped"] = float64(ws.GroupedCommits)

	// Only counted while the obs registry is on, i.e. in the traced phase.
	c["mvcc.walks"] = float64(s.ob.Registry.Counter("mvcc_chain_walks_total").Value())
	c["mvcc.steps"] = float64(s.ob.Registry.Counter("mvcc_chain_steps_total").Value())

	if s.srv != nil {
		as := s.srv.Admitter().Stats()
		c["admit.admitted"] = float64(as.Admitted)
		c["admit.shed"] = float64(as.ShedTotal())
	}
	for _, d := range []*timedDev{s.log, s.data} {
		st := d.Stats()
		c["disk."+d.name+".busy_ns"] = float64(st.BusyTime)
		c["disk."+d.name+".syncs"] = float64(d.syncs.Load())
		c["disk."+d.name+".sync_ns"] = float64(d.syncNs.Load())
		c["disk."+d.name+".reads"] = float64(d.reads.Load())
		c["disk."+d.name+".read_ns"] = float64(d.readNs.Load())
		c["disk."+d.name+".write_bytes"] = float64(d.writeBytes.Load())
	}
	return c
}

// gauges are instantaneous readings taken at the end of the traced phase.
func (s *sut) gauges() counters {
	g := counters{"mvcc.versions": float64(s.ob.Registry.Gauge("mvcc_versions").Value())}
	if s.srv != nil {
		as := s.srv.Admitter().Stats()
		g["admit.wait_p99_ms"] = ms(as.WindowP99)
		g["admit.eff_cap"] = float64(as.EffectiveCap)
	}
	return g
}

// variance reads the obs engine's eq.-1 decomposition over the traced
// phase: the share of latency variance of each named factor, the
// unexplained remainder, the sum of the factors' mean times and the
// number of transactions the sensor sampled.
func (s *sut) variance() (share map[string]float64, residual, factorMeanMs float64, n int64) {
	snap := s.ob.Variance.Snapshot()
	share = map[string]float64{}
	for _, f := range snap.Factors {
		share[f.Name] = f.Share
		factorMeanMs += f.MeanMs
	}
	if snap.N > 0 {
		residual = 1 - snap.ExplainedShare
	}
	return share, residual, factorMeanMs, snap.N
}

// ---- timed device ----

// timedDev decorates a disk.Device: it counts and times the calls the
// layers above make (what a caller sees, queueing included), tracks its
// own in-flight high-water mark per phase, and in the traced phase
// records one span per call. Everything else — fault hooks, images,
// Stats — is the inner device's.
type timedDev struct {
	disk.Device
	name string

	syncs, syncNs      atomic.Int64 // Fsync / Sync: the commit barrier
	reads, readNs      atomic.Int64 // ReadBlock: a buffer-pool miss
	writes, writeNs    atomic.Int64 // WriteBytes / WriteData / WriteBlock
	writeBytes         atomic.Int64
	inflight, queueMax atomic.Int32
	spans              atomic.Pointer[devLog]
}

func newTimedDev(inner disk.Device, name string) *timedDev {
	return &timedDev{Device: inner, name: name}
}

func (d *timedDev) enter() time.Time {
	w := d.inflight.Add(1)
	for {
		old := d.queueMax.Load()
		if w <= old || d.queueMax.CompareAndSwap(old, w) {
			break
		}
	}
	return time.Now()
}

func (d *timedDev) exit(op string, start time.Time, n, ns *atomic.Int64) {
	end := time.Now()
	d.inflight.Add(-1)
	n.Add(1)
	ns.Add(int64(end.Sub(start)))
	if dl := d.spans.Load(); dl != nil {
		dl.add("disk."+d.name+"."+op, start, end)
	}
}

func (d *timedDev) WriteBytes(n int) time.Duration {
	t := d.enter()
	r := d.Device.WriteBytes(n)
	d.writeBytes.Add(int64(n))
	d.exit("write", t, &d.writes, &d.writeNs)
	return r
}

func (d *timedDev) WriteData(p []byte) error {
	t := d.enter()
	err := d.Device.WriteData(p)
	d.writeBytes.Add(int64(len(p)))
	d.exit("write", t, &d.writes, &d.writeNs)
	return err
}

func (d *timedDev) WriteBlock() time.Duration {
	t := d.enter()
	r := d.Device.WriteBlock()
	d.writeBytes.Add(int64(d.Device.Config().BlockSize))
	d.exit("write", t, &d.writes, &d.writeNs)
	return r
}

func (d *timedDev) Fsync() time.Duration {
	t := d.enter()
	r := d.Device.Fsync()
	d.exit("sync", t, &d.syncs, &d.syncNs)
	return r
}

func (d *timedDev) Sync() error {
	t := d.enter()
	err := d.Device.Sync()
	d.exit("sync", t, &d.syncs, &d.syncNs)
	return err
}

func (d *timedDev) ReadBlock() time.Duration {
	t := d.enter()
	r := d.Device.ReadBlock()
	d.exit("read", t, &d.reads, &d.readNs)
	return r
}

// ---- wire ----

const (
	opPing     = server.OpPing
	opBegin    = server.OpBegin
	opCommit   = server.OpCommit
	opRollback = server.OpRollback
	opGet      = server.OpGet
	opUpdate   = server.OpUpdate
	statusOK   = server.StatusOK
)

// wireConn speaks the wire protocol raw so that requests can be
// pipelined: put appends frames, flush writes them, next reads replies
// in order. Not safe for concurrent use, except that one goroutine may
// put/flush while another calls next.
type wireConn struct {
	nc         net.Conn
	wbuf       []byte
	rbuf       []byte
	rpos, rend int

	framesOut, framesIn, bytesOut, bytesIn int64

	// keep, when set, retains copies of up to cap(keep) frames as they
	// pass (both directions) for the codec timing.
	keepMu sync.Mutex
	keep   [][]byte
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{nc: nc, rbuf: make([]byte, 64<<10)}
	c.put(0, server.OpHello, []byte{server.ProtoVersion})
	if err := c.flush(); err != nil {
		nc.Close()
		return nil, err
	}
	if st, _, err := c.next(); err != nil || st != statusOK {
		nc.Close()
		return nil, fmt.Errorf("wire hello: status %#x: %v", st, err)
	}
	return c, nil
}

func (c *wireConn) close() { c.nc.Close() }

func (c *wireConn) put(stream uint32, op uint8, payload []byte) {
	off := len(c.wbuf)
	c.wbuf = server.AppendFrame(c.wbuf, stream, op, 0, payload)
	c.framesOut++
	c.retain(c.wbuf[off:])
}

func (c *wireConn) pending() int { return len(c.wbuf) }

func (c *wireConn) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.wbuf)
	c.bytesOut += int64(len(c.wbuf))
	c.wbuf = c.wbuf[:0]
	return err
}

// next returns the next reply. The payload aliases the read buffer and
// is only valid until the following call.
func (c *wireConn) next() (status uint8, payload []byte, err error) {
	for {
		f, n, err := server.DecodeFrame(c.rbuf[c.rpos:c.rend])
		if err == nil {
			c.retain(c.rbuf[c.rpos : c.rpos+n])
			c.rpos += n
			c.framesIn++
			return f.Op, f.Payload, nil
		}
		if !errors.Is(err, server.ErrShortFrame) {
			return 0, nil, err
		}
		if c.rpos > 0 {
			c.rend = copy(c.rbuf, c.rbuf[c.rpos:c.rend])
			c.rpos = 0
		}
		if c.rend == len(c.rbuf) {
			c.rbuf = append(c.rbuf, make([]byte, len(c.rbuf))...)
		}
		m, err := c.nc.Read(c.rbuf[c.rend:])
		if m == 0 && err != nil {
			return 0, nil, err
		}
		c.rend += m
		c.bytesIn += int64(m)
	}
}

func (c *wireConn) retain(frame []byte) {
	if c.keep == nil {
		return
	}
	c.keepMu.Lock()
	if len(c.keep) < cap(c.keep) {
		c.keep = append(c.keep, append([]byte(nil), frame...))
	}
	c.keepMu.Unlock()
}

// keepFrames starts (n > 0) or stops (n == 0) retaining frames and
// returns what was retained so far.
func (c *wireConn) keepFrames(n int) [][]byte {
	c.keepMu.Lock()
	defer c.keepMu.Unlock()
	old := c.keep
	c.keep = nil
	if n > 0 {
		c.keep = make([][]byte, 0, n)
	}
	return old
}

func keyPayload(dst []byte, table string, key uint64) []byte {
	return server.AppendU64(server.AppendStr16(dst, table), key)
}

func rowPayload(dst []byte, table string, key uint64, row []byte) []byte {
	return server.AppendBytes32(keyPayload(dst, table, key), row)
}

// codecNsPerFrame times DecodeFrame + AppendFrame over frames that
// actually crossed the wire.
func codecNsPerFrame(frames [][]byte) float64 {
	if len(frames) == 0 {
		return 0
	}
	const rounds = 20
	var buf []byte
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range frames {
			f, _, err := server.DecodeFrame(b)
			if err != nil {
				return 0
			}
			buf = server.AppendFrame(buf[:0], f.Stream, f.Op, f.Flags, f.Payload)
		}
	}
	return float64(time.Since(start)) / float64(rounds*len(frames))
}
