package server_test

import (
	"testing"
	"time"

	"vats/internal/admit"
	"vats/internal/harness"
)

// benchOverloadRun drives one open-loop overload run (2× the pinned
// M/G/c capacity) and returns the result. Shared by the shed-on and
// shed-off cells so the only variable is the admission policy.
func benchOverloadRun(b *testing.B, acfg admit.Config, table string) harness.LoadResult {
	b.Helper()
	const execDelay = 2 * time.Millisecond // capacity = Slots/S = 1000 req/s
	addr := startShedServer(b, acfg, execDelay)
	res, err := harness.RunLoad(harness.LoadConfig{
		Network:  "tcp",
		Addr:     addr,
		Conns:    128,
		Rate:     2000,
		Duration: 2 * time.Second,
		Warmup:   500 * time.Millisecond,
		ClassMix: [admit.NumClasses]float64{0.2, 0.4, 0.4},
		Table:    table,
		Keys:     512,
		Setup:    true,
		Seed:     11,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.ProtoErrors != 0 {
		b.Fatalf("%d protocol errors", res.ProtoErrors)
	}
	return res
}

// BenchmarkNetShed freezes the headline number of the PR: admitted p99
// under 2× overload with the feedback controller on versus off. The
// run is wall-clock-fixed, so the interesting outputs are the reported
// p99-ms / shed-frac metrics, not ns/op; run with -benchtime 1x.
func BenchmarkNetShed(b *testing.B) {
	b.Run("On", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := benchOverloadRun(b, admit.Config{
				Slots:     2,
				QueueCap:  256,
				TargetP99: 20 * time.Millisecond,
				Window:    10 * time.Millisecond,
			}, "bshed")
			b.ReportMetric(res.Latency.P99, "p99-ms")
			b.ReportMetric(res.Latency.P50, "p50-ms")
			b.ReportMetric(float64(res.Shed)/float64(res.Sent), "shed-frac")
		}
	})
	b.Run("Off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := benchOverloadRun(b, admit.Config{
				Slots:       2,
				QueueCap:    256,
				DisableShed: true,
			}, "bshed2")
			b.ReportMetric(res.Latency.P99, "p99-ms")
			b.ReportMetric(res.Latency.P50, "p50-ms")
			b.ReportMetric(float64(res.Shed)/float64(res.Sent), "shed-frac")
		}
	})
}

// BenchmarkNetScaleSessions opens 100k logical sessions multiplexed
// over 16 connections and reports the open rate plus the request p99
// with that session table resident — the sessions-at-scale cell.
func BenchmarkNetScaleSessions(b *testing.B) {
	const sessions = 100_000
	for i := 0; i < b.N; i++ {
		addr := startShedServer(b, admit.Config{Slots: 8, QueueCap: 128}, 0)
		start := time.Now()
		res, err := harness.RunLoad(harness.LoadConfig{
			Network:      "tcp",
			Addr:         addr,
			Conns:        16,
			Rate:         500,
			Duration:     time.Second,
			IdleSessions: sessions,
			Table:        "bscale",
			Setup:        true,
			Seed:         13,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.IdleOpen != sessions || res.ProtoErrors != 0 {
			b.Fatalf("idle=%d proto-errors=%d", res.IdleOpen, res.ProtoErrors)
		}
		b.ReportMetric(float64(sessions)/time.Since(start).Seconds(), "sessions-open/s")
		b.ReportMetric(res.Latency.P99, "p99-ms")
	}
}
