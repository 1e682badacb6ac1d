package harness

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vats/internal/server"
	"vats/internal/workload"
)

// TestLoadStreamIsPure: the wire arrival stream is a function of the
// seed and the rate, duration, mix and write-fraction fields alone.
func TestLoadStreamIsPure(t *testing.T) {
	cfg := LoadConfig{
		Conns:     4,
		Rate:      1000,
		Duration:  25 * time.Second,
		ClassMix:  [3]float64{0.2, 0.4, 0.4},
		WriteFrac: 0.25,
		Keys:      512,
		Seed:      7,
	}.withDefaults()
	due, reqs := loadStream(cfg)
	due2, reqs2 := loadStream(cfg)
	if !reflect.DeepEqual(due, due2) || !reflect.DeepEqual(reqs, reqs2) {
		t.Fatal("same config gave two different streams")
	}

	conns := cfg
	conns.Conns = 128
	due2, reqs2 = loadStream(conns)
	if !reflect.DeepEqual(due, due2) || !reflect.DeepEqual(reqs, reqs2) {
		t.Fatal("changing Conns changed the stream")
	}

	seed := cfg
	seed.Seed = 8
	due2, reqs2 = loadStream(seed)
	if reflect.DeepEqual(due, due2) || reflect.DeepEqual(reqs, reqs2) {
		t.Fatal("a different seed gave the same stream")
	}

	if len(due) < 20_000 {
		t.Fatalf("only %d arrivals", len(due))
	}
	rate := float64(len(due)) / cfg.Duration.Seconds()
	if math.Abs(rate-cfg.Rate) > 0.05*cfg.Rate {
		t.Fatalf("mean rate %.1f/s, want %.0f/s ± 5%%", rate, cfg.Rate)
	}
	for n := 1; n < len(due); n++ {
		if due[n] < due[n-1] || due[n] >= cfg.Duration {
			t.Fatalf("due[%d] = %v after %v (duration %v)", n, due[n], due[n-1], cfg.Duration)
		}
	}
	var byClass [3]int
	updates := 0
	for _, r := range reqs {
		byClass[r.class]++
		if r.op == server.OpUpdate {
			updates++
		}
		if r.key >= cfg.Keys {
			t.Fatalf("key %d outside %d keys", r.key, cfg.Keys)
		}
	}
	if byClass[0] == 0 || byClass[1] == 0 || byClass[2] == 0 || updates == 0 || updates == len(reqs) {
		t.Fatalf("stream misses a class or an op: by class %v, %d updates", byClass, updates)
	}
}

// TestDriveTimesFromDue: one worker whose first arrival blocks for
// 100ms; every arrival due during the block waits for it, and that wait
// is in its latency.
func TestDriveTimesFromDue(t *testing.T) {
	due := make([]time.Duration, 40)
	for n := range due {
		due[n] = time.Duration(n) * 5 * time.Millisecond
	}
	var block time.Duration
	lat, _ := drive(1, len(due), due, func(w, n int) {
		if n == 0 {
			t0 := time.Now()
			time.Sleep(100 * time.Millisecond)
			block = time.Since(t0)
		}
	})
	checked := 0
	for n := 1; n < len(due) && due[n] < block; n++ {
		left := float64(block-due[n]) / float64(time.Millisecond)
		if lat[n] < left {
			t.Errorf("arrival %d due at %v: latency %.2fms, want ≥ %.2fms left in the block",
				n, due[n], lat[n], left)
		}
		checked++
	}
	if checked < 19 {
		t.Fatalf("only %d arrivals fell in the block", checked)
	}
}

type countingClient struct{ n int }

var errFlaky = errors.New("flaky")

func (c *countingClient) Run() (string, error) {
	c.n++
	if c.n%7 == 0 {
		return "", errFlaky
	}
	return "op", nil
}

// TestThroughputCountsWhatItTimes: Throughput × Elapsed is the run's
// successful transactions, warm-up included, for one run and for a
// merged pair.
func TestThroughputCountsWhatItTimes(t *testing.T) {
	clients := []workload.Client{&countingClient{}, &countingClient{}}
	res, err := runClients("count", "none", clients, RunConfig{Count: 100, Warmup: 40, Rate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Overall.N >= 60 {
		t.Fatalf("errors %d, measured %d: the run should see failures", res.Errors, res.Overall.N)
	}
	done := float64(100 - res.Errors)
	if got := res.Throughput * res.Elapsed.Seconds(); math.Abs(got-done) > 1e-6 {
		t.Fatalf("Throughput × Elapsed = %.6f, want %v completions", got, done)
	}
	pooled := res
	pooled.Latencies = append([]float64(nil), res.Latencies...)
	pooled.Merge(res)
	if got := pooled.Throughput * pooled.Elapsed.Seconds(); math.Abs(got-2*done) > 1e-6 {
		t.Fatalf("merged Throughput × Elapsed = %.6f, want %v completions", got, 2*done)
	}
}
