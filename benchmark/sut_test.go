package main

// Tests that hold the benchmark's own code against the system's: like
// sut.go, the only test file that imports it.

import (
	"math"
	"testing"
	"time"

	"vats/internal/disk"
	"vats/internal/stats"
)

func TestPercentilesAndSigmaAgreeWithStatsSummarize(t *testing.T) {
	r := newRnd(11, 0, 0)
	xs := make([]float64, 5001)
	for i := range xs {
		xs[i] = math.Exp(3 * r.float()) // long-tailed, like latencies
	}
	want := stats.Summarize(xs)
	s := sorted(xs)
	mean, std := meanStd(xs)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", quantile(s, 0.50), want.P50},
		{"p99", quantile(s, 0.99), want.P99},
		{"mean", mean, want.Mean},
		{"std", std, want.StdDev},
	} {
		if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
			t.Errorf("%s = %v, stats.Summarize gives %v", c.name, c.got, c.want)
		}
	}
}

func TestTimedDevTotalsEqualTheInnerDevice(t *testing.T) {
	// A deterministic device of (almost) no latency: the totals below
	// are counts and an inequality between two readings of the same
	// monotonic clock, nothing that depends on how long a call takes.
	inner := disk.New(disk.Config{Name: "t", MedianLatency: time.Nanosecond, BlockSize: 4096})
	d := newTimedDev(inner, "t")
	for i := 0; i < 50; i++ {
		d.Fsync()
		d.ReadBlock()
		d.WriteBlock()
		d.WriteBytes(100) // under one block: one device operation
	}
	st := inner.Stats()
	calls := d.syncs.Load() + d.reads.Load() + d.writes.Load()
	wall := time.Duration(d.syncNs.Load() + d.readNs.Load() + d.writeNs.Load())
	if calls != st.Ops || calls != 200 {
		t.Errorf("decorator saw %d calls, inner device served %d operations, want 200", calls, st.Ops)
	}
	if d.syncs.Load() != 50 || d.reads.Load() != 50 || d.writes.Load() != 100 {
		t.Errorf("syncs %d reads %d writes %d, want 50 50 100", d.syncs.Load(), d.reads.Load(), d.writes.Load())
	}
	if got, want := d.writeBytes.Load(), int64(50*4096+50*100); got != want {
		t.Errorf("%d bytes written, want %d", got, want)
	}
	// Busy time is the inner device's own account (service only); what
	// the decorator times around each call can only be longer.
	if busy := d.Stats().BusyTime; busy != st.BusyTime || wall < busy {
		t.Errorf("busy %v (inner %v), wall %v", busy, st.BusyTime, wall)
	}
	if d.inflight.Load() != 0 || d.queueMax.Load() != 1 {
		t.Errorf("in flight %d, high-water %d, want 0 and 1", d.inflight.Load(), d.queueMax.Load())
	}
}
