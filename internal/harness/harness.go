// Package harness drives workloads the way the paper's evaluation does
// (§7.1): an open-loop client sustains a fixed arrival rate
// (OLTP-Bench style) while per-transaction latencies are recorded, then
// summarized as mean, variance and p99.
//
// One driver core (drive) serves every load: Run and RunPartitioned
// feed it evenly spaced arrivals over engine clients, RunLoad a seeded
// Poisson stream over wire connections to a vatsd server. Latency is
// measured from an arrival's due time to its completion, so queueing
// behind saturated workers counts — exactly the behaviour that makes
// tail latency meaningful at a fixed offered load.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vats/internal/engine"
	"vats/internal/partition"
	"vats/internal/stats"
	"vats/internal/workload"
)

// RunConfig configures one measurement run.
type RunConfig struct {
	// Clients is the number of worker goroutines (default 8). Each gets
	// its own workload client and engine session.
	Clients int
	// Rate is the offered load in transactions/second (open loop).
	// Zero means closed loop: workers issue back-to-back transactions.
	Rate float64
	// Count is the total number of transactions to run (default 500).
	Count int
	// Warmup transactions are executed but excluded from statistics.
	Warmup int
	// Seed seeds the workload clients.
	Seed int64
}

func (rc *RunConfig) defaults() {
	if rc.Clients <= 0 {
		rc.Clients = 8
	}
	if rc.Count <= 0 {
		rc.Count = 500
	}
}

// Result summarizes one run.
type Result struct {
	Workload  string
	Scheduler string
	// Overall summarizes all measured transaction latencies (ms).
	Overall stats.Summary
	// PerTag breaks latency down by transaction type.
	PerTag map[string]stats.Summary
	// Errors counts transactions that failed after all retries.
	Errors int
	// Elapsed is the wall time of the whole run, warm-up included.
	Elapsed time.Duration
	// Throughput is successful transactions per second over Elapsed.
	// It counts the warm-up transactions, since Elapsed spans them.
	Throughput float64
	// Latencies holds the raw measured latencies in ms (for pooling
	// across repetitions).
	Latencies []float64
}

// Merge pools another run's raw latencies and error counts into r and
// recomputes the summaries; Throughput becomes both runs' successful
// transactions over their summed Elapsed. Both runs must be of the same
// workload and configuration.
func (r *Result) Merge(o Result) {
	done := r.Throughput*r.Elapsed.Seconds() + o.Throughput*o.Elapsed.Seconds()
	r.Latencies = append(r.Latencies, o.Latencies...)
	r.Errors += o.Errors
	r.Elapsed += o.Elapsed
	r.Overall = stats.Summarize(r.Latencies)
	if r.Elapsed > 0 {
		r.Throughput = done / r.Elapsed.Seconds()
	}
	if r.PerTag == nil {
		r.PerTag = map[string]stats.Summary{}
	}
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s[%s]: %s tput=%.0f/s errs=%d",
		r.Workload, r.Scheduler, r.Overall.String(), r.Throughput, r.Errors)
}

// Run loads nothing — call wl.Load(db) first — and drives the workload
// per rc.
func Run(db *engine.DB, wl workload.Workload, rc RunConfig) (Result, error) {
	rc.defaults()
	clients := make([]workload.Client, rc.Clients)
	for i := range clients {
		c, err := wl.NewClient(db, rc.Seed+int64(i)*7919+1)
		if err != nil {
			return Result{}, err
		}
		clients[i] = c
	}
	return runClients(wl.Name(), db.Locks().Scheduler().Name(), clients, rc)
}

// RunPartitioned drives a partition-aware workload against a
// partitioned engine with the same driver and measurement semantics as
// Run. Call wl.LoadPartitioned(pdb) first.
func RunPartitioned(pdb *partition.DB, wl workload.PartitionedWorkload, rc RunConfig) (Result, error) {
	rc.defaults()
	clients := make([]workload.Client, rc.Clients)
	for i := range clients {
		c, err := wl.NewPartitionedClient(pdb, rc.Seed+int64(i)*7919+1)
		if err != nil {
			return Result{}, err
		}
		clients[i] = c
	}
	return runClients(wl.Name(), pdb.Partition(0).Locks().Scheduler().Name(), clients, rc)
}

// runClients drives rc.Count transactions over the pre-built clients,
// evenly spaced at rc.Rate (closed loop at 0), and summarizes the
// measured latencies: the first rc.Warmup arrivals run but are left out
// of Overall, PerTag and Latencies.
func runClients(name, scheduler string, clients []workload.Client, rc RunConfig) (Result, error) {
	rc.defaults()
	var due []time.Duration
	if rc.Rate > 0 {
		interval := time.Duration(float64(time.Second) / rc.Rate)
		due = make([]time.Duration, rc.Count)
		for n := range due {
			due[n] = time.Duration(n) * interval
		}
	}
	tags := make([]string, rc.Count)
	errs := make([]error, rc.Count)
	lat, elapsed := drive(len(clients), rc.Count, due, func(w, n int) {
		tags[n], errs[n] = clients[w].Run()
	})

	res := Result{
		Workload:  name,
		Scheduler: scheduler,
		PerTag:    map[string]stats.Summary{},
		Elapsed:   elapsed,
	}
	perTag := make(map[string][]float64)
	for n, err := range errs {
		if err != nil {
			res.Errors++
		} else if n >= rc.Warmup {
			res.Latencies = append(res.Latencies, lat[n])
			perTag[tags[n]] = append(perTag[tags[n]], lat[n])
		}
	}
	res.Overall = stats.Summarize(res.Latencies)
	for tag, xs := range perTag {
		res.PerTag[tag] = stats.Summarize(xs)
	}
	if elapsed > 0 {
		res.Throughput = float64(rc.Count-res.Errors) / elapsed.Seconds()
	}
	return res, nil
}

// drive is the one load-driver core behind runClients and RunLoad.
// Arrival n is due at due[n] past the run's start; a nil due is a closed
// loop, where each arrival is due when a worker takes it. Each of the
// workers goroutines takes the next arrival in order, sleeps until it is
// due, runs it with run(worker, n) and times it from its due time, so an
// arrival that finds every worker busy has that wait in its latency. It
// returns each arrival's latency in ms and the wall time of the run.
func drive(workers, count int, due []time.Duration, run func(w, n int)) ([]float64, time.Duration) {
	lat := make([]float64, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1) - 1); n < count; n = int(next.Add(1) - 1) {
				at := time.Now()
				if due != nil {
					d := start.Add(due[n])
					if at.Before(d) {
						time.Sleep(d.Sub(at))
					}
					at = d
				}
				run(w, n)
				lat[n] = float64(time.Since(at)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	return lat, time.Since(start)
}

// RatioTable renders a paper-style comparison table: each row is one
// configuration's "baseline / this" ratios for mean, variance and p99.
func RatioTable(title string, baseline Result, rows []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (baseline: %s)\n", title, baseline.Scheduler)
	fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", "config", "mean", "variance", "p99")
	names := make([]string, 0, len(rows))
	byName := map[string]Result{}
	for _, r := range rows {
		names = append(names, r.Scheduler)
		byName[r.Scheduler] = r
	}
	sort.Strings(names)
	for _, n := range names {
		r := byName[n]
		ratio := stats.RatioOf(baseline.Overall, r.Overall)
		fmt.Fprintf(&b, "%-24s %9.2fx %9.2fx %9.2fx\n", n, ratio.Mean, ratio.Variance, ratio.P99)
	}
	return b.String()
}
