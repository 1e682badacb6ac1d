package server

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"vats/internal/admit"
	"vats/internal/storage"
)

// Client errors. Not-found maps back to storage.ErrKeyNotFound and
// shed to admit.ErrShed so callers branch on the same sentinels the
// embedded engine uses.
var (
	// ErrRetry means the server aborted the request with a retryable
	// conflict; re-issue it.
	ErrRetry = errors.New("server: retryable abort")
	// ErrRemote wraps StatusBad/StatusErr responses.
	ErrRemote = errors.New("server: remote error")
)

// Client is a synchronous protocol client: one in-flight request per
// call, FIFO-matched to responses. Safe for concurrent use (calls
// serialize on an internal mutex); open many clients for concurrency,
// as harness.RunLoad does with one per connection.
type Client struct {
	mu   sync.Mutex
	nc   net.Conn
	wbuf []byte
	rbuf []byte
}

// Dial connects and performs the Hello handshake.
func Dial(network, addr string) (*Client, error) {
	nc, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c := &Client{nc: nc}
	if _, _, err := c.RoundTrip(0, OpHello, 0, []byte{ProtoVersion}); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

// Close drops the connection (server rolls back open transactions).
func (c *Client) Close() error { return c.nc.Close() }

// SetDeadline bounds every subsequent read and write.
func (c *Client) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// RoundTrip sends one frame and reads the matching response, returning
// status and payload. The payload is only valid until the next call.
func (c *Client) RoundTrip(stream uint32, op, flags uint8, payload []byte) (uint8, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(stream, op, flags, payload)
}

func (c *Client) roundTripLocked(stream uint32, op, flags uint8, payload []byte) (uint8, []byte, error) {
	c.wbuf = AppendFrame(c.wbuf[:0], stream, op, flags, payload)
	if _, err := c.nc.Write(c.wbuf); err != nil {
		return 0, nil, err
	}
	f, err := c.readFrame()
	if err != nil {
		return 0, nil, err
	}
	if f.Stream != stream {
		return 0, nil, ErrBadFrame
	}
	return f.Op, f.Payload, nil
}

// readFrame reads exactly one frame off the wire.
func (c *Client) readFrame() (Frame, error) {
	if cap(c.rbuf) < headerSize {
		c.rbuf = make([]byte, 4096)
	}
	hdr := c.rbuf[:headerSize]
	if _, err := io.ReadFull(c.nc, hdr); err != nil {
		return Frame{}, err
	}
	// A bare header is always "short"; any other verdict (bad magic,
	// oversized payload) is fatal before reading the body.
	if _, _, err := DecodeFrame(hdr); err != ErrShortFrame {
		return Frame{}, err
	}
	plen := int(uint32(hdr[10]) | uint32(hdr[11])<<8 | uint32(hdr[12])<<16 | uint32(hdr[13])<<24)
	total := headerSize + plen + crcSize
	if total > cap(c.rbuf) {
		nb := make([]byte, total)
		copy(nb, hdr)
		c.rbuf = nb
	}
	b := c.rbuf[:total]
	if _, err := io.ReadFull(c.nc, b[headerSize:]); err != nil {
		return Frame{}, err
	}
	f, _, err := DecodeFrame(b)
	return f, err
}

// statusErr maps a response status to an error.
func statusErr(status uint8, payload []byte) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return storage.ErrKeyNotFound
	case StatusShed:
		return admit.ErrShed
	case StatusRetry:
		return ErrRetry
	default:
		return errors.Join(ErrRemote, errors.New(string(payload)))
	}
}

// Ping round-trips an empty frame on stream 0.
func (c *Client) Ping() error {
	st, p, err := c.RoundTrip(0, OpPing, 0, nil)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// OpenSession opens logical session `stream` with an admission class.
func (c *Client) OpenSession(stream uint32, class admit.Class) error {
	st, p, err := c.RoundTrip(stream, OpOpenSession, 0, []byte{byte(class)})
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// CloseSession closes logical session `stream`.
func (c *Client) CloseSession(stream uint32) error {
	st, p, err := c.RoundTrip(stream, OpCloseSession, 0, nil)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// CreateTable creates a table.
func (c *Client) CreateTable(name string) error {
	st, p, err := c.RoundTrip(0, OpCreateTable, 0, AppendStr16(nil, name))
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Begin opens an explicit transaction on the stream.
func (c *Client) Begin(stream uint32) error {
	st, p, err := c.RoundTrip(stream, OpBegin, 0, nil)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Commit commits the stream's open transaction.
func (c *Client) Commit(stream uint32) error {
	st, p, err := c.RoundTrip(stream, OpCommit, 0, nil)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Rollback aborts the stream's open transaction.
func (c *Client) Rollback(stream uint32) error {
	st, p, err := c.RoundTrip(stream, OpRollback, 0, nil)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// Get reads one row (copied — safe to retain).
func (c *Client) Get(stream uint32, table string, key uint64) ([]byte, error) {
	pl := AppendStr16(nil, table)
	pl = AppendU64(pl, key)
	st, p, err := c.RoundTrip(stream, OpGet, 0, pl)
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, err
	}
	return append([]byte(nil), p...), nil
}

// Insert writes a new row.
func (c *Client) Insert(stream uint32, table string, key uint64, row []byte) error {
	return c.write(stream, OpInsert, table, key, row)
}

// Update overwrites an existing row.
func (c *Client) Update(stream uint32, table string, key uint64, row []byte) error {
	return c.write(stream, OpUpdate, table, key, row)
}

// Delete removes a row.
func (c *Client) Delete(stream uint32, table string, key uint64) error {
	pl := AppendStr16(nil, table)
	pl = AppendU64(pl, key)
	st, p, err := c.RoundTrip(stream, OpDelete, 0, pl)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

func (c *Client) write(stream uint32, op uint8, table string, key uint64, row []byte) error {
	pl := AppendStr16(nil, table)
	pl = AppendU64(pl, key)
	pl = AppendBytes32(pl, row)
	st, p, err := c.RoundTrip(stream, op, 0, pl)
	if err != nil {
		return err
	}
	return statusErr(st, p)
}

// KV is one scan result row.
type KV struct {
	Key uint64
	Row []byte
}

// Scan returns up to limit rows with keys in [lo, hi).
func (c *Client) Scan(stream uint32, table string, lo, hi uint64, limit int) ([]KV, error) {
	pl := AppendStr16(nil, table)
	pl = AppendU64(pl, lo)
	pl = AppendU64(pl, hi)
	pl = AppendU32(pl, uint32(limit))
	st, p, err := c.RoundTrip(stream, OpScan, 0, pl)
	if err != nil {
		return nil, err
	}
	if err := statusErr(st, p); err != nil {
		return nil, err
	}
	r := payloadReader{b: p}
	n := r.u32()
	out := make([]KV, 0, n)
	for i := uint32(0); i < n; i++ {
		key := r.u64()
		row := r.bytes32()
		if r.bad {
			return nil, ErrBadFrame
		}
		out = append(out, KV{Key: key, Row: append([]byte(nil), row...)})
	}
	return out, nil
}
