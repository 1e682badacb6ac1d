// Command vatsbench runs one workload against one engine configuration
// and prints latency statistics — the building block the experiments
// compose.
//
// Usage:
//
//	vatsbench -workload tpcc -sched VATS -clients 32 -rate 800 -count 2000
//	vatsbench -workload ycsb -sched FCFS -flush lazywrite
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vats"
)

func main() {
	var (
		wlName     = flag.String("workload", "tpcc", "tpcc | seats | tatp | epinions | ycsb")
		sched      = flag.String("sched", "FCFS", "FCFS | VATS | RS")
		flush      = flag.String("flush", "eager", "eager | lazyflush | lazywrite")
		lru        = flag.String("lru", "eager", "eager | lazy (LLU)")
		par        = flag.Bool("parallel-log", false, "two-stream parallel logging")
		clients    = flag.Int("clients", 16, "concurrent terminals")
		rate       = flag.Float64("rate", 0, "offered load txn/s (0 = closed loop)")
		count      = flag.Int("count", 1000, "transactions to measure")
		pages      = flag.Int("buffer", 4096, "buffer pool pages")
		seed       = flag.Int64("seed", 1, "random seed")
		obsAddr    = flag.String("obs", "", "serve live /metrics + /debug on this address (e.g. :9090)")
		sloP99     = flag.Float64("slo-p99", 0, "p99 latency SLO in ms for the variance watchdog (0 = off)")
		obsBudget  = flag.Float64("obs-budget", 0.01, "span-capture overhead budget as a fraction of one core (negative = unlimited)")
		scanners   = flag.Int("scanners", 0, "concurrent full-table snapshot scanners running alongside the workload (the HTAP scan-under-writers mode)")
		scanIso    = flag.String("scan-isolation", "readcommitted", "readcommitted | snapshot: isolation for Txn.Scan/IndexScan inside workload transactions")
		parts      = flag.Int("partitions", 0, "run the horizontally partitioned engine with N partitions (0 = plain engine; tpcc only)")
		xwh        = flag.Float64("xwarehouse", 0, "cross-warehouse (multi-partition) fraction for partitioned tpcc Payments and NewOrder remote supply, in [0,1]")
		warehouses = flag.Int("warehouses", 0, "tpcc warehouse count for the partitioned run (0 = workload default)")
	)
	flag.Parse()

	if *obsAddr != "" {
		ob := vats.Observability()
		ob.Watchdog.SetSLO(vats.SLOConfig{P99TargetMs: *sloP99})
		ob.Sampler.SetBudget(*obsBudget)
		srv, err := vats.ServeObservability(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("observability: %s/metrics /debug/variance /debug/anomalies\n", srv.URL())
	}

	opts := vats.Options{
		BufferPages: *pages,
		ParallelLog: *par,
		Seed:        *seed,
	}
	switch strings.ToUpper(*sched) {
	case "VATS":
		opts.Scheduler = vats.VATS
	case "RS":
		opts.Scheduler = vats.RS
	}
	switch strings.ToLower(*flush) {
	case "lazyflush":
		opts.Flush = vats.LazyFlush
	case "lazywrite":
		opts.Flush = vats.LazyWrite
	}
	if strings.ToLower(*lru) == "lazy" {
		opts.LRU = vats.LazyLRU
	}
	switch strings.ToLower(*scanIso) {
	case "readcommitted":
	case "snapshot":
		opts.ScanIsolation = vats.SnapshotScans
	default:
		fmt.Fprintf(os.Stderr, "unknown -scan-isolation %q\n", *scanIso)
		os.Exit(2)
	}

	if *parts > 0 {
		if *wlName != "tpcc" {
			fmt.Fprintln(os.Stderr, "-partitions supports -workload tpcc only")
			os.Exit(2)
		}
		runPartitioned(opts, *parts, *warehouses, *xwh, *sched, *clients, *rate, *count, *seed)
		if *obsAddr != "" {
			printAttribution(vats.Observability())
		}
		return
	}

	wl, err := vats.NewWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	db, err := vats.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer db.Close()

	// The scan-under-writers mode: -scanners N runs N goroutines that
	// loop lock-free full-table snapshot scans over every workload
	// table for the duration of the benchmark, so the reported writer
	// latencies are measured under sustained analytic load.
	var stopScan func() (rows, rounds int64)
	if *scanners > 0 {
		stopScan = startScanners(db, *scanners)
	}

	res, err := vats.RunBenchmark(db, wl, vats.BenchConfig{
		Clients: *clients,
		Rate:    *rate,
		Count:   *count,
		Warmup:  *count / 10,
		Seed:    *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var scanRows, scanRounds int64
	if stopScan != nil {
		scanRows, scanRounds = stopScan()
	}

	fmt.Printf("workload=%s scheduler=%s flush=%s lru=%s clients=%d rate=%.0f\n",
		*wlName, strings.ToUpper(*sched), *flush, *lru, *clients, *rate)
	fmt.Printf("overall: %s\n", res.Overall.String())
	fmt.Printf("throughput: %.0f txn/s, errors: %d\n", res.Throughput, res.Errors)

	tags := make([]string, 0, len(res.PerTag))
	for tag := range res.PerTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	fmt.Printf("\n%-22s %8s %10s %10s %10s\n", "transaction type", "n", "mean ms", "p99 ms", "cov")
	for _, tag := range tags {
		s := res.PerTag[tag]
		fmt.Printf("%-22s %8d %10.3f %10.3f %10.2f\n", tag, s.N, s.Mean, s.P99, s.CoV)
	}

	ls := db.Locks().Stats()
	fmt.Printf("\nlocks: acquires=%d waits=%d waitTime=%v deadlocks=%d timeouts=%d\n",
		ls.Acquires, ls.Waits, ls.WaitTime, ls.Deadlocks, ls.Timeouts)
	ps := db.Pool().Stats()
	fmt.Printf("buffer: hits=%d misses=%d evictions=%d makeYoung=%d deferred=%d\n",
		ps.Hits, ps.Misses, ps.Evictions, ps.MakeYoungs, ps.Deferred)
	ws := db.Log().Stats()
	fmt.Printf("wal: appends=%d flushes=%d grouped=%d bytes=%d\n",
		ws.Appends, ws.Flushes, ws.GroupedCommits, ws.Bytes)
	marks := db.Log().StreamWatermarks()
	sm := make([]string, len(marks))
	for i, wm := range marks {
		sm[i] = fmt.Sprintf("%d", wm)
	}
	fmt.Printf("wal: durable-watermark=%d stream-watermarks=[%s]\n",
		db.Log().DurableWatermark(), strings.Join(sm, " "))
	if ws.Flushes > 0 {
		fmt.Printf("wal: records/flush=%.1f\n", float64(ws.Appends)/float64(ws.Flushes))
	}
	if *scanners > 0 {
		fmt.Printf("scanners: n=%d rounds=%d rows=%d\n", *scanners, scanRounds, scanRows)
		var versions, walks int64
		for _, t := range db.Tables() {
			st := t.MVCCStats()
			versions += st.Versions
			walks += st.ChainWalks
		}
		fmt.Printf("mvcc: live-versions=%d chain-walks=%d low-water=%d\n",
			versions, walks, db.Clock().LowWater())
	}

	if *obsAddr != "" {
		printAttribution(vats.Observability())
	}
}

// runPartitioned drives partitioned TPC-C: N independent partitions
// hash-routed by warehouse, with xwh controlling the multi-partition
// (cross-warehouse) transaction fraction. It reports the usual latency
// summary plus the router's single/multi split and the per-partition
// throughput skew.
func runPartitioned(opts vats.Options, parts, warehouses int, xwh float64, sched string, clients int, rate float64, count int, seed int64) {
	opts.Partitions = parts
	pdb, err := vats.OpenPartitioned(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer pdb.Close()

	wl := vats.NewPartitionedTPCC(warehouses, xwh)
	res, err := vats.RunPartitionedBenchmark(pdb, wl, vats.BenchConfig{
		Clients: clients,
		Rate:    rate,
		Count:   count,
		Warmup:  count / 10,
		Seed:    seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("workload=tpcc-part scheduler=%s partitions=%d xwarehouse=%.2f clients=%d rate=%.0f\n",
		strings.ToUpper(sched), parts, xwh, clients, rate)
	fmt.Printf("overall: %s\n", res.Overall.String())
	fmt.Printf("throughput: %.0f txn/s, errors: %d\n", res.Throughput, res.Errors)

	tags := make([]string, 0, len(res.PerTag))
	for tag := range res.PerTag {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	fmt.Printf("\n%-22s %8s %10s %10s %10s\n", "transaction type", "n", "mean ms", "p99 ms", "cov")
	for _, tag := range tags {
		s := res.PerTag[tag]
		fmt.Printf("%-22s %8d %10.3f %10.3f %10.2f\n", tag, s.N, s.Mean, s.P99, s.CoV)
	}

	st := pdb.Stats()
	total := st.Single + st.Multi
	ratio := 0.0
	if total > 0 {
		ratio = float64(st.Multi) / float64(total)
	}
	fmt.Printf("\nrouting: single=%d multi=%d (%.1f%% multi) 2pc-aborts=%d\n",
		st.Single, st.Multi, 100*ratio, st.MultiAborts)

	// Per-partition participation skew: each partition's share of all
	// transaction participations, plus max/mean as the skew figure.
	var sum, max int64
	for _, n := range st.PerPartition {
		sum += n
		if n > max {
			max = n
		}
	}
	fmt.Printf("%-12s %12s %8s\n", "partition", "txns", "share")
	for p, n := range st.PerPartition {
		share := 0.0
		if sum > 0 {
			share = float64(n) / float64(sum)
		}
		fmt.Printf("%-12d %12d %7.1f%%\n", p, n, 100*share)
	}
	if sum > 0 && len(st.PerPartition) > 0 {
		mean := float64(sum) / float64(len(st.PerPartition))
		fmt.Printf("skew: max/mean = %.2f\n", float64(max)/mean)
	}

	for p := 0; p < pdb.Partitions(); p++ {
		e := pdb.Partition(p)
		ls := e.Locks().Stats()
		ws := e.Log().Stats()
		fmt.Printf("partition %d: lock-waits=%d deadlocks=%d timeouts=%d wal-appends=%d wal-flushes=%d\n",
			p, ls.Waits, ls.Deadlocks, ls.Timeouts, ws.Appends, ws.Flushes)
	}
}

// startScanners launches n goroutines that loop full-table snapshot
// scans over every table until the returned stop function is called;
// it reports total rows visited and complete all-table rounds.
func startScanners(db *vats.DB, n int) func() (rows, rounds int64) {
	var stop atomic.Bool
	var rows, rounds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for !stop.Load() {
				for _, t := range db.Tables() {
					snap := s.BeginSnapshot()
					seen := 0
					snap.Scan(t, 0, ^uint64(0), func(uint64, []byte) bool {
						seen++
						return !stop.Load()
					})
					snap.Close()
					rows.Add(int64(seen))
				}
				rounds.Add(1)
			}
		}()
	}
	return func() (int64, int64) {
		stop.Store(true)
		wg.Wait()
		return rows.Load(), rounds.Load()
	}
}

// printAttribution summarizes the live variance-attribution state after
// the run: what the latency variance decomposed into over the recent
// window horizon, what the sampling controller settled on, and any SLO
// anomalies the watchdog raised.
func printAttribution(ob *vats.Obs) {
	snap := ob.Variance.Snapshot()
	if snap.N == 0 {
		return
	}
	fmt.Printf("\nvariance attribution (last %d window(s), %d txns): total %.3f ms², explained %.0f%%\n",
		snap.Windows, snap.N, snap.Variance, 100*snap.ExplainedShare)
	for _, f := range snap.TopFactors(5) {
		fmt.Printf("  %-28s %10.4f ms²  %6.1f%% of total\n",
			strings.Join(f.Functions, "+"), f.Value, 100*f.FracOfTotal)
	}
	st := ob.Sampler.State()
	fmt.Printf("sampling: modulus=%d rate=%.0f txn/s est-overhead=%.3f%% (budget %.1f%%)\n",
		st.Modulus, st.RateTxnS, 100*st.EstimatedFrac, 100*st.BudgetFrac)
	if as := ob.Watchdog.Anomalies(5); len(as) > 0 {
		fmt.Printf("anomalies (%d total, newest first):\n", ob.Watchdog.Total())
		for _, a := range as {
			fmt.Printf("  [%s] %s\n", a.Kind, a.Msg)
		}
	}
}
