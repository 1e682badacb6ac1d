package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/admit"
	"vats/internal/server"
	"vats/internal/stats"
)

// LoadConfig drives one open-loop load run against a vatsd server.
type LoadConfig struct {
	// Network/Addr locate the server ("tcp", "127.0.0.1:4750").
	Network, Addr string
	// Conns is the number of connections (default 4). Each carries one
	// request at a time, so at most Conns requests are in flight.
	Conns int
	// Rate is the target arrival rate in requests/second (required).
	Rate float64
	// Duration is how long to generate arrivals (default 2s).
	Duration time.Duration
	// ClassMix weighs admission classes [high, normal, low]; zero
	// means all-normal traffic.
	ClassMix [admit.NumClasses]float64
	// WriteFrac is the fraction of requests that are updates; the rest
	// are point gets (default 0: read-only).
	WriteFrac float64
	// Table and Keys define the working set (defaults "load", 1024).
	Table string
	Keys  uint64
	// IdleSessions opens this many idle logical sessions, spread over
	// the connections, before the arrivals start — the "sessions at
	// scale" smoke. They stay open for the whole run.
	IdleSessions int
	// Setup creates the table and seeds Keys rows before the run.
	Setup bool
	// Warmup leaves arrivals due before this offset into the run out of
	// the latency distributions (the counters still count them), so a
	// feedback controller's convergence transient doesn't dominate the
	// steady-state percentiles.
	Warmup time.Duration
	// Seed seeds the arrival stream (default 1).
	Seed int64
}

// LoadResult summarizes one load run. Every arrival is sent once, so
// Sent = OK + Shed + Retry + Errors + ProtoErrors.
type LoadResult struct {
	Sent, OK, NotFound int64
	Shed, Retry        int64
	// Errors counts server-reported engine errors (StatusErr).
	Errors int64
	// ProtoErrors counts protocol-level failures: undecodable frames,
	// StatusBad, stream mismatches, connection drops mid-run.
	ProtoErrors int64
	// SentByClass / ShedByClass split arrivals by admission class.
	SentByClass [admit.NumClasses]int64
	ShedByClass [admit.NumClasses]int64
	// IdleOpen is how many idle sessions opened successfully.
	IdleOpen int64
	// Latency is the due→response distribution of admitted (StatusOK/
	// NotFound) requests, in milliseconds.
	Latency stats.Summary
	// ShedLatency is the due→shed-response distribution, ms.
	ShedLatency stats.Summary
	Elapsed     time.Duration
}

func (cfg LoadConfig) withDefaults() LoadConfig {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Table == "" {
		cfg.Table = "load"
	}
	if cfg.Keys == 0 {
		cfg.Keys = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if m := cfg.ClassMix; m[0]+m[1]+m[2] <= 0 {
		cfg.ClassMix = [admit.NumClasses]float64{0, 1, 0}
	}
	return cfg
}

// request is what one arrival of a load run asks the server.
type request struct {
	key   uint64
	class uint8
	op    uint8 // server.OpGet or server.OpUpdate
}

// loadStream draws a run's whole arrival stream from cfg.Seed: Poisson
// due times at cfg.Rate over cfg.Duration, each with a class drawn from
// ClassMix, a uniform key below Keys, and an update with probability
// WriteFrac (else a get). Nothing else in cfg enters, so the stream does
// not depend on Conns or on which connection takes an arrival.
func loadStream(cfg LoadConfig) ([]time.Duration, []request) {
	if cfg.Rate <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mix := cfg.ClassMix
	var due []time.Duration
	var reqs []request
	for at := time.Duration(0); at < cfg.Duration; at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)) {
		r := request{class: 2, op: server.OpGet}
		if x := rng.Float64() * (mix[0] + mix[1] + mix[2]); x < mix[0] {
			r.class = 0
		} else if x < mix[0]+mix[1] {
			r.class = 1
		}
		r.key = rng.Uint64() % cfg.Keys
		if rng.Float64() < cfg.WriteFrac {
			r.op = server.OpUpdate
		}
		due = append(due, at)
		reqs = append(reqs, r)
	}
	return due, reqs
}

// RunLoad drives one open-loop load run against a running server with
// the same core as Run: each connection is one synchronous
// server.Client, the arrival stream is drawn up front from cfg.Seed, and
// each request is timed from its due time, so an arrival that waits for
// a free connection has that wait in its latency.
func RunLoad(cfg LoadConfig) (LoadResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Rate <= 0 && cfg.IdleSessions == 0 {
		return LoadResult{}, errors.New("harness: load rate must be positive")
	}
	if cfg.Setup {
		if err := setupLoad(cfg); err != nil {
			return LoadResult{}, err
		}
	}
	conns := make([]*server.Client, cfg.Conns)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		c, err := server.Dial(cfg.Network, cfg.Addr)
		if err != nil {
			return LoadResult{}, fmt.Errorf("harness: dial conn %d: %w", i, err)
		}
		// A request still unanswered a minute after the last arrival is
		// due counts as a protocol error rather than hanging the run.
		c.SetDeadline(time.Now().Add(cfg.Duration + time.Minute)) //nolint:errcheck
		conns[i] = c
	}

	var res LoadResult
	res.IdleOpen = openIdle(conns, cfg.IdleSessions)

	due, reqs := loadStream(cfg)
	status := make([]uint8, len(reqs)) // 0: no response
	bufs := make([][]byte, len(conns))
	row := []byte("updated-row-payload")
	lat, elapsed := drive(len(conns), len(reqs), due, func(w, n int) {
		c := conns[w]
		if c == nil {
			return // the connection broke earlier in the run
		}
		r := reqs[n]
		pl := server.AppendU64(server.AppendStr16(bufs[w][:0], cfg.Table), r.key)
		if r.op == server.OpUpdate {
			pl = server.AppendBytes32(pl, row)
		}
		bufs[w] = pl
		st, _, err := c.RoundTrip(0, r.op, r.class+1, pl)
		if err != nil {
			c.Close()
			conns[w] = nil
			return
		}
		status[n] = st
	})

	warm := sort.Search(len(due), func(i int) bool { return due[i] >= cfg.Warmup })
	var admitted, shed []float64
	for n, r := range reqs {
		res.SentByClass[r.class]++
		switch status[n] {
		case server.StatusOK, server.StatusNotFound:
			res.OK++ // a not-found get was answered; the key is just absent
			if status[n] == server.StatusNotFound {
				res.NotFound++
			}
			if n >= warm {
				admitted = append(admitted, lat[n])
			}
		case server.StatusShed:
			res.Shed++
			res.ShedByClass[r.class]++
			if n >= warm {
				shed = append(shed, lat[n])
			}
		case server.StatusRetry:
			res.Retry++
		case server.StatusErr:
			res.Errors++
		default:
			res.ProtoErrors++
		}
	}
	res.Sent = int64(len(reqs))
	res.Latency = stats.Summarize(admitted)
	res.ShedLatency = stats.Summarize(shed)
	res.Elapsed = elapsed
	return res, nil
}

// openIdle opens n idle sessions spread evenly over the connections, one
// goroutine per connection, with classes in turn, and returns how many
// opened. A connection stops opening at its first failure.
func openIdle(conns []*server.Client, n int) int64 {
	per := (n + len(conns) - 1) / len(conns)
	var opened atomic.Int64
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := i * per; s < min((i+1)*per, n); s++ {
				if c.OpenSession(uint32(1+s-i*per), admit.Class(s%admit.NumClasses)) != nil {
					return
				}
				opened.Add(1)
			}
		}()
	}
	wg.Wait()
	return opened.Load()
}

// setupLoad creates the table (tolerating "exists") and seeds the
// keyspace in one explicit transaction.
func setupLoad(cfg LoadConfig) error {
	c, err := server.Dial(cfg.Network, cfg.Addr)
	if err != nil {
		return fmt.Errorf("harness: setup dial: %w", err)
	}
	defer c.Close()
	if err := c.CreateTable(cfg.Table); err != nil && !errors.Is(err, server.ErrRemote) {
		return fmt.Errorf("harness: create table: %w", err)
	}
	if err := c.Begin(0); err != nil {
		return err
	}
	for k := uint64(0); k < cfg.Keys; k++ {
		if err := c.Insert(0, cfg.Table, k, []byte("seed-row-payload")); err != nil {
			c.Rollback(0) //nolint:errcheck
			// Already seeded by a previous run against the same server.
			return nil
		}
	}
	return c.Commit(0)
}
