package server_test

import (
	"testing"
	"time"

	"vats/internal/admit"
	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/harness"
	"vats/internal/obs"
	"vats/internal/server"
)

// startShedServer opens a server whose admitted requests cost exactly
// SimExecDelay: Slots/SimExecDelay is the M/G/c service capacity, so
// the test controls overload precisely regardless of host speed.
func startShedServer(t testing.TB, acfg admit.Config, execDelay time.Duration) string {
	t.Helper()
	mk := func(name string, s int64) disk.Device {
		dc := disk.DefaultConfig(name, s)
		dc.MedianLatency = 2 * time.Microsecond
		return disk.New(dc)
	}
	db := engine.Open(engine.Config{
		BufferCapacity: 256,
		LockTimeout:    500 * time.Millisecond,
		DataDevice:     mk("data", 11),
		LogDevices:     []disk.Device{mk("log0", 12)},
		Obs:            obs.New(),
	})
	srv := server.New(db, server.Config{Admit: acfg, SimExecDelay: execDelay})
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return addr.String()
}

// TestShedKeepsAdmittedP99InBand is the paper's queueing-delay claim
// as an executable test: drive an open-loop Poisson stream at 2× the
// service capacity. With the feedback controller on, low-priority work
// is shed and admitted-request p99 stays within a band of the target;
// with shedding off, the unbounded queue blows the p99 out by an order
// of magnitude.
func TestShedKeepsAdmittedP99InBand(t *testing.T) {
	if testing.Short() {
		t.Skip("overload run takes ~8s")
	}
	const (
		execDelay = 2 * time.Millisecond // service time S
		slots     = 2                    // c ⇒ capacity = c/S = 1000 req/s
		rate      = 2000.0               // 2× capacity
		targetP99 = 20 * time.Millisecond
	)
	// 128 connections keeps per-connection utilization low, so the
	// measured client latency is dominated by the admission queue (the
	// thing under test), not same-connection pipeline residue.
	load := harness.LoadConfig{
		Network:  "tcp",
		Conns:    128,
		Rate:     rate,
		Duration: 2500 * time.Millisecond,
		Warmup:   500 * time.Millisecond, // let the AIMD controller converge
		ClassMix: [admit.NumClasses]float64{0.2, 0.4, 0.4},
		Table:    "shed",
		Keys:     512,
		Setup:    true,
		Seed:     7,
	}

	// Admitted p99 within the target band. Client-side latency is
	// queue wait + service + pipeline residue, so the band is 6× the
	// queue-wait target — wide enough to absorb AIMD oscillation and
	// loaded-host scheduling noise, while the uncontrolled run below
	// overshoots it by well over an order of magnitude. A full
	// `go test ./...` runs other packages concurrently on the same
	// core, so retry on fixed seeds before calling a narrow band miss
	// a regression (the Table 3 / Figure 4 deflake pattern).
	band := 6 * float64(targetP99/time.Millisecond)
	var ctl harness.LoadResult
	for _, seed := range []int64{7, 23, 41} {
		// Controlled: bounded queue + p99 feedback + per-class shedding.
		addr := startShedServer(t, admit.Config{
			Slots:     slots,
			QueueCap:  256,
			TargetP99: targetP99,
			Window:    10 * time.Millisecond,
		}, execDelay)
		load.Addr = addr
		load.Seed = seed
		var err error
		ctl, err = harness.RunLoad(load)
		if err != nil {
			t.Fatalf("controlled run: %v", err)
		}
		t.Logf("controlled (seed %d): sent=%d ok=%d shed=%d (by class %v) p99=%.1fms shed-p99=%.1fms",
			seed, ctl.Sent, ctl.OK, ctl.Shed, ctl.ShedByClass, ctl.Latency.P99, ctl.ShedLatency.P99)
		if ctl.ProtoErrors != 0 {
			t.Fatalf("controlled run had %d protocol errors", ctl.ProtoErrors)
		}
		checkAccounting(t, ctl)
		if ctl.Latency.P99 <= band {
			break
		}
		t.Logf("admitted p99 %.1fms outside band %.0fms (retrying)", ctl.Latency.P99, band)
	}
	if ctl.Shed == 0 {
		t.Fatal("controlled overload run shed nothing")
	}
	// Per-class policy: low-priority work bears the shedding.
	if ctl.ShedByClass[admit.Low] <= 2*ctl.ShedByClass[admit.High] {
		t.Fatalf("shedding not class-ordered: %v", ctl.ShedByClass)
	}
	if ctl.Latency.P99 > band {
		t.Fatalf("admitted p99 %.1fms outside band %.0fms on every retry seed", ctl.Latency.P99, band)
	}

	// Uncontrolled: same overload, shedding off — the queue is
	// unbounded and the backlog compounds for the whole run.
	addr := startShedServer(t, admit.Config{
		Slots:       slots,
		QueueCap:    256,
		DisableShed: true,
	}, execDelay)
	load.Addr = addr
	load.Table = "shed2"
	raw, err := harness.RunLoad(load)
	if err != nil {
		t.Fatalf("uncontrolled run: %v", err)
	}
	t.Logf("uncontrolled: sent=%d ok=%d shed=%d p99=%.1fms",
		raw.Sent, raw.OK, raw.Shed, raw.Latency.P99)
	if raw.ProtoErrors != 0 {
		t.Fatalf("uncontrolled run had %d protocol errors", raw.ProtoErrors)
	}
	if raw.Shed != 0 {
		t.Fatalf("uncontrolled run shed %d", raw.Shed)
	}
	if raw.Latency.P99 < 2*ctl.Latency.P99 || raw.Latency.P99 < band {
		t.Fatalf("uncontrolled p99 %.1fms did not blow past controlled %.1fms (band %.0fms)",
			raw.Latency.P99, ctl.Latency.P99, band)
	}
}

// TestLoadgenSmoke is the CI smoke: a short mixed read/write run at
// modest rate must complete with zero protocol errors.
func TestLoadgenSmoke(t *testing.T) {
	addr := startShedServer(t, admit.Config{Slots: 8, QueueCap: 128}, 0)
	res, err := harness.RunLoad(harness.LoadConfig{
		Network:      "tcp",
		Addr:         addr,
		Conns:        8,
		Rate:         500,
		Duration:     time.Second,
		WriteFrac:    0.25,
		IdleSessions: 1000,
		Setup:        true,
		Seed:         3,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.ProtoErrors != 0 || res.Errors != 0 {
		t.Fatalf("smoke errors: proto=%d engine=%d", res.ProtoErrors, res.Errors)
	}
	if res.IdleOpen != 1000 {
		t.Fatalf("idle sessions: %d/1000", res.IdleOpen)
	}
	if res.OK == 0 || res.Sent == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	checkAccounting(t, res)
}

// checkAccounting: every arrival is sent once and lands in exactly one
// outcome counter, and the per-class splits sum to their totals.
func checkAccounting(t *testing.T, res harness.LoadResult) {
	t.Helper()
	if got := res.OK + res.Shed + res.Retry + res.Errors + res.ProtoErrors; got != res.Sent {
		t.Errorf("OK+Shed+Retry+Errors+ProtoErrors = %d, Sent = %d", got, res.Sent)
	}
	if got := res.SentByClass[0] + res.SentByClass[1] + res.SentByClass[2]; got != res.Sent {
		t.Errorf("SentByClass %v sums to %d, Sent = %d", res.SentByClass, got, res.Sent)
	}
	if got := res.ShedByClass[0] + res.ShedByClass[1] + res.ShedByClass[2]; got != res.Shed {
		t.Errorf("ShedByClass %v sums to %d, Shed = %d", res.ShedByClass, got, res.Shed)
	}
}

// TestScaleSessions holds 100k+ concurrent open logical sessions —
// multiplexed as streams over a handful of connections, the design
// that clears a 20k-fd rlimit — and proves the server stays live.
func TestScaleSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("100k sessions takes a few seconds")
	}
	const want = 100_000
	addr := startShedServer(t, admit.Config{Slots: 8, QueueCap: 128}, 0)
	res, err := harness.RunLoad(harness.LoadConfig{
		Network:      "tcp",
		Addr:         addr,
		Conns:        16,
		Rate:         200,
		Duration:     time.Second,
		IdleSessions: want,
		Setup:        true,
		Table:        "scale",
		Seed:         5,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.IdleOpen != want {
		t.Fatalf("idle sessions open: %d/%d", res.IdleOpen, want)
	}
	if res.ProtoErrors != 0 {
		t.Fatalf("protocol errors with %d sessions: %d", want, res.ProtoErrors)
	}
	if res.OK == 0 {
		t.Fatal("server unresponsive under session load")
	}
}
