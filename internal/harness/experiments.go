package harness

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"vats/internal/buffer"
	"vats/internal/engine"
	"vats/internal/lock"
	"vats/internal/queuesim"
	"vats/internal/sched"
	"vats/internal/stats"
	"vats/internal/tprofiler"
	"vats/internal/wal"
	"vats/internal/workload"
	"vats/internal/xrand"
)

// Experiment is the result of reproducing one table or figure.
type Experiment struct {
	// ID is the index key (table1, fig2, ...).
	ID string
	// Title describes the paper artifact.
	Title string
	// Text is the rendered report (the regenerated table/series).
	Text string
	// Data holds the key metrics for programmatic assertions.
	Data map[string]float64
}

// Opts scales an experiment run. Zero values take experiment-specific
// defaults sized for benchmark runs; tests pass smaller Counts.
type Opts struct {
	// Count is transactions per measurement run.
	Count int
	// Clients is the worker count.
	Clients int
	// Rate is the offered load (txn/s); 0 uses each experiment's
	// default.
	Rate float64
	// Seed controls all randomness.
	Seed int64
}

func (o Opts) with(defCount, defClients int, defRate float64) Opts {
	if o.Count <= 0 {
		o.Count = defCount
	}
	if o.Clients <= 0 {
		o.Clients = defClients
	}
	if o.Rate == 0 {
		o.Rate = defRate
	}
	return o
}

// contendedTPCC returns the TPC-C configuration used for the contended
// MySQL experiments (few warehouses relative to clients).
func contendedTPCC() *workload.TPCC {
	return workload.NewTPCC(workload.TPCCConfig{Warehouses: 2})
}

// bufferTPCC is the scaled-up TPC-C used by the memory-contended
// ("2-WH") experiments: enough rows that the database spans a few
// hundred small pages, so an undersized pool churns constantly.
func bufferTPCC() *workload.TPCC {
	// Many warehouses keep record-lock contention low so the buffer
	// pool — not the lock manager — is the bottleneck under study.
	return workload.NewTPCC(workload.TPCCConfig{Warehouses: 8, CustomersPerDistrict: 80, Items: 800})
}

// bufferDBPages loads bufferTPCC once into a huge pool and reports the
// database size in pages, so experiments can size pools as fractions.
func bufferDBPages(seed int64) (int, error) {
	probe := MySQLMode(ModeOpts{BufferPages: 1 << 17, PageSize: 1024, Seed: seed})
	defer probe.Close()
	if err := bufferTPCC().Load(probe); err != nil {
		return 0, err
	}
	return probe.Pool().Resident(), nil
}

// bufferMode builds the 2-WH style engine: tiny pool, OS-cache-fast
// data device (page misses are cheap; the LRU lock is the contended
// resource, as in the paper's 2-WH configuration).
func bufferMode(pool int, policy buffer.UpdatePolicy, seed int64) *engine.DB {
	return MySQLMode(ModeOpts{
		Scheduler:   lock.FCFS{},
		BufferPages: pool,
		PageSize:    1024,
		DataMedian:  10 * time.Microsecond,
		LRUPolicy:   policy,
		Seed:        seed,
	})
}

// poolReps is how many interleaved repetitions pairwise experiments
// pool. Single runs on a one-core host are chaotic (a convoy during
// one 3-second window can swing a variance ratio 10x in either
// direction); pooling several interleaved repetitions, with a GC
// between runs so no configuration systematically inherits a larger
// heap, makes the reported ratios reproducible.
const poolReps = 4

// runPooled opens a fresh engine per repetition via open, loads wl, and
// pools the measured latencies across poolReps repetitions.
func runPooled(open func() *engine.DB, wl func() workload.Workload, o Opts, reps int) (Result, error) {
	if reps <= 0 {
		reps = poolReps
	}
	var pooled Result
	for r := 0; r < reps; r++ {
		runtime.GC()
		db := open()
		ro := o
		ro.Seed = o.Seed + int64(r)*1009
		res, err := runOn(db, wl(), ro)
		db.Close()
		if err != nil {
			return Result{}, err
		}
		if r == 0 {
			pooled = res
		} else {
			pooled.Merge(res)
		}
	}
	return pooled, nil
}

// runOn loads wl into db and drives one measurement run.
func runOn(db *engine.DB, wl workload.Workload, o Opts) (Result, error) {
	if err := wl.Load(db); err != nil {
		return Result{}, err
	}
	warmup := o.Count / 10
	return Run(db, wl, RunConfig{
		Clients: o.Clients,
		Rate:    o.Rate,
		Count:   o.Count + warmup,
		Warmup:  warmup,
		Seed:    o.Seed + 100,
	})
}

// ---------------------------------------------------------------------
// Table 1 — key sources of variance in MySQL (TProfiler, TPC-C under a
// 128-WH-like large pool and a 2-WH-like tiny pool).
// ---------------------------------------------------------------------

// Table1 reproduces Table 1. The 128-WH configuration is the contended
// lock-bound regime (large pool, everything resident); the 2-WH one is
// the memory-contended regime where the pool is a quarter of the
// database and the LRU lock becomes the pathology.
func Table1(o Opts) (Experiment, error) {
	o = o.with(2000, 32, 800)
	bufPages, err := bufferDBPages(o.Seed)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Table 1: key sources of variance in MySQL mode (TProfiler top factors)\n")

	type cfg struct {
		label   string
		open    func(prof *tprofiler.Profiler) *engine.DB
		wl      workload.Workload
		rate    float64
		clients int
		count   int
	}
	for _, c := range []cfg{
		{
			label: "128-WH (pool >> working set)",
			open: func(prof *tprofiler.Profiler) *engine.DB {
				return MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, BufferPages: 8192, Profiler: prof, Seed: o.Seed})
			},
			wl:      contendedTPCC(),
			rate:    o.Rate,
			clients: o.Clients,
			count:   o.Count,
		},
		{
			label: "2-WH (pool << working set)",
			open: func(prof *tprofiler.Profiler) *engine.DB {
				db := MySQLMode(ModeOpts{
					Scheduler:   lock.FCFS{},
					BufferPages: bufPages / 4,
					PageSize:    1024,
					DataMedian:  10 * time.Microsecond,
					Profiler:    prof,
					Seed:        o.Seed,
				})
				return db
			},
			wl: bufferTPCC(),
			// Moderate load: heavy LRU-lock queueing without the
			// cascade collapse that would re-express every buffer wait
			// as a record-lock wait.
			rate:    100,
			clients: 8,
			count:   600,
		},
	} {
		prof := tprofiler.New()
		db := c.open(prof)
		co := o
		co.Rate = c.rate
		co.Clients = c.clients
		if co.Count > c.count {
			co.Count = c.count
		}
		res, err := runOn(db, c.wl, co)
		db.Close()
		if err != nil {
			return Experiment{}, err
		}
		fmt.Fprintf(&b, "\n[%s]  txn var=%.3f ms²  (run: %s)\n", c.label, prof.RootVariance(), res.Overall.String())
		for _, f := range prof.TopFactors(6) {
			fmt.Fprintf(&b, "  %s\n", f.String())
			key := c.label[:4] + "/" + strings.Join(f.Functions, "×")
			data[key] = f.FracOfTotal
		}
		// Key per-function fractions for assertions.
		for _, f := range prof.TopFactors(0) {
			if f.Kind == tprofiler.VarianceFactor {
				data[c.label[:4]+":"+f.Functions[0]] = f.FracOfTotal
			}
		}
	}
	return Experiment{ID: "table1", Title: "Key sources of variance in MySQL", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Table 2 — key sources of variance in Postgres (WAL flush lock).
// ---------------------------------------------------------------------

// Table2 reproduces Table 2.
func Table2(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 400)
	prof := tprofiler.New()
	db := PostgresMode(ModeOpts{Scheduler: lock.FCFS{}, Profiler: prof, Seed: o.Seed})
	defer db.Close()
	// Postgres table: moderate contention — the WAL convoy, not record
	// locks, should dominate. Use more warehouses to de-emphasize locks.
	wl := workload.NewTPCC(workload.TPCCConfig{Warehouses: 8})
	res, err := runOn(db, wl, o)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Table 2: key sources of variance in Postgres mode\n")
	fmt.Fprintf(&b, "txn var=%.3f ms²  (run: %s)\n", prof.RootVariance(), res.Overall.String())
	for _, f := range prof.TopFactors(6) {
		fmt.Fprintf(&b, "  %s\n", f.String())
	}
	for _, f := range prof.TopFactors(0) {
		if f.Kind == tprofiler.VarianceFactor {
			data[f.Functions[0]] = f.FracOfTotal
		}
	}
	return Experiment{ID: "table2", Title: "Key sources of variance in Postgres", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 2 + Table 4 — scheduling algorithms.
// ---------------------------------------------------------------------

// schedReps is the repetition count for scheduler comparisons, which
// need more repetitions than other experiments: a single convoy event
// during one run can swing a variance ratio an order of magnitude.
const schedReps = 7

// schedulerComparison runs wl under each scheduler schedReps times,
// interleaved so machine-state drift hits every policy equally, and
// returns (a) the pooled per-scheduler results and (b) the *median of
// per-repetition paired ratios* against schedulers[0]. The median of
// paired ratios is the robust estimator: one pathological repetition on
// either side cannot flip the reported direction.
func schedulerComparison(wl func() workload.Workload, schedulers []lock.Scheduler, o Opts) (map[string]Result, map[string]stats.Ratio, error) {
	pooled := make(map[string]Result, len(schedulers))
	perRep := make(map[string][]Result, len(schedulers))
	for r := 0; r < schedReps; r++ {
		for _, s := range schedulers {
			runtime.GC()
			db := MySQLMode(ModeOpts{Scheduler: s, Seed: o.Seed + int64(r)})
			ro := o
			ro.Seed = o.Seed + int64(r)*1009
			res, err := runOn(db, wl(), ro)
			db.Close()
			if err != nil {
				return nil, nil, err
			}
			perRep[s.Name()] = append(perRep[s.Name()], res)
			if prev, ok := pooled[s.Name()]; ok {
				prev.Merge(res)
				pooled[s.Name()] = prev
			} else {
				pooled[s.Name()] = res
			}
		}
	}
	baseName := schedulers[0].Name()
	ratios := make(map[string]stats.Ratio, len(schedulers))
	for _, s := range schedulers {
		name := s.Name()
		var means, vars, p99s []float64
		for r := 0; r < schedReps; r++ {
			rr := stats.RatioOf(perRep[baseName][r].Overall, perRep[name][r].Overall)
			means = append(means, rr.Mean)
			vars = append(vars, rr.Variance)
			p99s = append(p99s, rr.P99)
		}
		ratios[name] = stats.Ratio{
			Mean:     stats.Percentile(means, 0.5),
			Variance: stats.Percentile(vars, 0.5),
			P99:      stats.Percentile(p99s, 0.5),
		}
	}
	return pooled, ratios, nil
}

// Figure2 reproduces fig. 2: FCFS vs VATS vs RS on TPC-C.
func Figure2(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 800)
	_, ratios, err := schedulerComparison(
		func() workload.Workload { return contendedTPCC() },
		[]lock.Scheduler{lock.FCFS{}, lock.VATS{}, lock.RS{}}, o)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 2: effect of lock scheduling on MySQL-mode TPC-C\n")
	fmt.Fprintf(&b, "(median of %d paired-run ratios, FCFS/alg)\n", schedReps)
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "alg", "mean", "variance", "p99")
	for _, name := range []string{"VATS", "RS"} {
		r := ratios[name]
		fmt.Fprintf(&b, "%-6s %9.2fx %9.2fx %9.2fx\n", name, r.Mean, r.Variance, r.P99)
		data[name+"/mean"] = r.Mean
		data[name+"/variance"] = r.Variance
		data[name+"/p99"] = r.P99
	}
	return Experiment{ID: "fig2", Title: "Scheduling algorithms on TPC-C", Text: b.String(), Data: data}, nil
}

// Table4 reproduces Table 4: VATS vs FCFS on all five workloads. Each
// workload runs in its own near-capacity regime (the TPC-C row paced at
// its saturation rate, the rest closed-loop), which is where lock
// scheduling matters — as in the paper's fixed-rate runs on much slower
// hardware. Ratios are medians of paired repetitions.
func Table4(o Opts) (Experiment, error) {
	o = o.with(1500, 32, -1)
	type row struct {
		name      string
		contended bool
		rate      float64 // -1 = closed loop
		make      func() workload.Workload
	}
	rows := []row{
		{"TPCC", true, 800, func() workload.Workload { return contendedTPCC() }},
		{"SEATS", true, -1, func() workload.Workload { return workload.NewSEATS(workload.SEATSConfig{}) }},
		{"TATP", true, -1, func() workload.Workload { return workload.NewTATP(workload.TATPConfig{}) }},
		{"Epinions", false, -1, func() workload.Workload { return workload.NewEpinions(workload.EpinionsConfig{}) }},
		{"YCSB", false, -1, func() workload.Workload { return workload.NewYCSB(workload.YCSBConfig{}) }},
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Table 4: VATS vs FCFS (median paired ratios FCFS/VATS; >1 means VATS better)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "workload", "mean", "variance", "p99")
	for _, r := range rows {
		ro := o
		ro.Rate = r.rate
		_, ratios, err := schedulerComparison(r.make, []lock.Scheduler{lock.FCFS{}, lock.VATS{}}, ro)
		if err != nil {
			return Experiment{}, err
		}
		ratio := ratios["VATS"]
		fmt.Fprintf(&b, "%-10s %9.2fx %9.2fx %9.2fx\n", r.name, ratio.Mean, ratio.Variance, ratio.P99)
		data[r.name+"/mean"] = ratio.Mean
		data[r.name+"/variance"] = ratio.Variance
		data[r.name+"/p99"] = ratio.P99
	}
	return Experiment{ID: "table4", Title: "VATS vs FCFS across workloads", Text: b.String(), Data: data}, nil
}

// AblationConveyance isolates how much of VATS's benefit comes from
// eldest-first ordering alone vs. the paper's practical "grant as many
// compatible locks as possible" modification (§5.2's implementation
// note): it compares FCFS, strict eldest-first (no conveyance) and full
// VATS on the contended TPC-C regime.
func AblationConveyance(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 800)
	_, ratios, err := schedulerComparison(
		func() workload.Workload { return contendedTPCC() },
		[]lock.Scheduler{lock.FCFS{}, lock.VATSStrict{}, lock.VATS{}}, o)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Ablation: eldest-first order alone vs full VATS (median paired ratios FCFS/alg)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s\n", "alg", "mean", "variance", "p99")
	for _, name := range []string{"VATS-strict", "VATS"} {
		r := ratios[name]
		fmt.Fprintf(&b, "%-12s %9.2fx %9.2fx %9.2fx\n", name, r.Mean, r.Variance, r.P99)
		data[name+"/mean"] = r.Mean
		data[name+"/variance"] = r.Variance
		data[name+"/p99"] = r.P99
	}
	return Experiment{ID: "ablation1", Title: "VATS conveyance ablation", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 3 — LLU, buffer pool size, flush policy.
// ---------------------------------------------------------------------

// Figure3LLU reproduces fig. 3 (left): Lazy LRU Update vs original.
func Figure3LLU(o Opts) (Experiment, error) {
	o = o.with(800, 16, -1)
	pages, err := bufferDBPages(o.Seed)
	if err != nil {
		return Experiment{}, err
	}
	run := func(policy buffer.UpdatePolicy) (Result, error) {
		return runPooled(func() *engine.DB { return bufferMode(pages/4, policy, o.Seed) },
			func() workload.Workload { return bufferTPCC() }, o, 2)
	}
	orig, err := run(buffer.EagerLRU)
	if err != nil {
		return Experiment{}, err
	}
	llu, err := run(buffer.LazyLRU)
	if err != nil {
		return Experiment{}, err
	}
	ratio := stats.RatioOf(orig.Overall, llu.Overall)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (left): Lazy LRU Update vs original (ratios orig/LLU)\n")
	fmt.Fprintf(&b, "mean=%.2fx variance=%.2fx p99=%.2fx\n", ratio.Mean, ratio.Variance, ratio.P99)
	fmt.Fprintf(&b, "original: %s\nLLU:      %s\n", orig.Overall.String(), llu.Overall.String())
	return Experiment{ID: "fig3L", Title: "Lazy LRU Update", Text: b.String(),
		Data: map[string]float64{"mean": ratio.Mean, "variance": ratio.Variance, "p99": ratio.P99}}, nil
}

// Figure3BufferPool reproduces fig. 3 (center): buffer pool at 33%,
// 66% and 100% of the database size (ratios vs 33%).
func Figure3BufferPool(o Opts) (Experiment, error) {
	o = o.with(800, 16, -1)
	dbPages, err := bufferDBPages(o.Seed)
	if err != nil {
		return Experiment{}, err
	}
	run := func(frac float64) (Result, error) {
		pages := int(float64(dbPages) * frac)
		if pages < 8 {
			pages = 8
		}
		return runPooled(func() *engine.DB { return bufferMode(pages, buffer.EagerLRU, o.Seed) },
			func() workload.Workload { return bufferTPCC() }, o, 2)
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 3 (center): buffer pool size (ratios 33%%/size)\n")
	base, err := run(0.33)
	if err != nil {
		return Experiment{}, err
	}
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "size", "mean", "variance", "p99")
	for _, f := range []struct {
		label string
		frac  float64
	}{{"66%", 0.66}, {"100%", 1.10}} {
		r, err := run(f.frac)
		if err != nil {
			return Experiment{}, err
		}
		ratio := stats.RatioOf(base.Overall, r.Overall)
		fmt.Fprintf(&b, "%-6s %9.2fx %9.2fx %9.2fx\n", f.label, ratio.Mean, ratio.Variance, ratio.P99)
		data[f.label+"/mean"] = ratio.Mean
		data[f.label+"/variance"] = ratio.Variance
		data[f.label+"/p99"] = ratio.P99
	}
	return Experiment{ID: "fig3C", Title: "Buffer pool size", Text: b.String(), Data: data}, nil
}

// Figure3FlushPolicy reproduces fig. 3 (right): eager flush vs lazy
// flush vs lazy write (ratios eager/policy).
func Figure3FlushPolicy(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 600)
	run := func(p wal.FlushPolicy) (Result, error) {
		return runPooled(func() *engine.DB {
			return MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, FlushPolicy: p, Seed: o.Seed})
		}, func() workload.Workload { return contendedTPCC() }, o, 3)
	}
	eager, err := run(wal.EagerFlush)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 3 (right): log flush policy (ratios eager/policy)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s\n", "policy", "mean", "variance", "p99")
	for _, p := range []wal.FlushPolicy{wal.LazyFlush, wal.LazyWrite} {
		r, err := run(p)
		if err != nil {
			return Experiment{}, err
		}
		ratio := stats.RatioOf(eager.Overall, r.Overall)
		fmt.Fprintf(&b, "%-10s %9.2fx %9.2fx %9.2fx\n", p.String(), ratio.Mean, ratio.Variance, ratio.P99)
		data[p.String()+"/mean"] = ratio.Mean
		data[p.String()+"/variance"] = ratio.Variance
		data[p.String()+"/p99"] = ratio.P99
	}
	return Experiment{ID: "fig3R", Title: "Log flush policy", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 4 — parallel logging and block size (Postgres mode).
// ---------------------------------------------------------------------

// Figure4Parallel reproduces fig. 4 (left): parallel logging vs the
// original single WAL stream.
func Figure4Parallel(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 350)
	wl := func() workload.Workload { return workload.NewTPCC(workload.TPCCConfig{Warehouses: 8}) }
	orig, err := runPooled(func() *engine.DB { return PostgresMode(ModeOpts{Seed: o.Seed}) }, wl, o, 3)
	if err != nil {
		return Experiment{}, err
	}
	par, err := runPooled(func() *engine.DB {
		return PostgresMode(ModeOpts{LogDevices: 2, ParallelLog: true, Seed: o.Seed})
	}, wl, o, 3)
	if err != nil {
		return Experiment{}, err
	}
	ratio := stats.RatioOf(orig.Overall, par.Overall)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (left): parallel logging vs original (ratios orig/parallel)\n")
	fmt.Fprintf(&b, "mean=%.2fx variance=%.2fx p99=%.2fx\n", ratio.Mean, ratio.Variance, ratio.P99)
	fmt.Fprintf(&b, "original: %s\nparallel: %s\n", orig.Overall.String(), par.Overall.String())
	return Experiment{ID: "fig4L", Title: "Parallel logging", Text: b.String(),
		Data: map[string]float64{"mean": ratio.Mean, "variance": ratio.Variance, "p99": ratio.P99}}, nil
}

// Figure4BlockSize reproduces fig. 4 (right): redo block size sweep
// (ratios 4K/size).
func Figure4BlockSize(o Opts) (Experiment, error) {
	// Closed loop: concurrent committers form multi-transaction group
	// commits whose batches span several blocks, which is the regime
	// where block-size tuning matters.
	o = o.with(1500, 32, -1)
	run := func(block int) (Result, error) {
		return runPooled(func() *engine.DB {
			return PostgresMode(ModeOpts{LogBlockSize: block, Seed: o.Seed})
		}, func() workload.Workload {
			return workload.NewTPCC(workload.TPCCConfig{Warehouses: 8})
		}, o, 3)
	}
	base, err := run(4 * 1024)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 4 (right): redo block size (ratios 4K/size)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "block", "mean", "variance", "p99")
	for _, blk := range []int{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024} {
		r, err := run(blk)
		if err != nil {
			return Experiment{}, err
		}
		label := fmt.Sprintf("%dK", blk/1024)
		ratio := stats.RatioOf(base.Overall, r.Overall)
		fmt.Fprintf(&b, "%-6s %9.2fx %9.2fx %9.2fx\n", label, ratio.Mean, ratio.Variance, ratio.P99)
		data[label+"/variance"] = ratio.Variance
		data[label+"/mean"] = ratio.Mean
	}
	return Experiment{ID: "fig4R", Title: "Redo block size", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 5 — TProfiler overhead and run counts.
// ---------------------------------------------------------------------

// Figure5Overhead reproduces fig. 5 (left): profiling overhead of
// TProfiler vs a DTrace-like binary instrumenter as the number of
// instrumented children grows.
func Figure5Overhead(o Opts) (Experiment, error) {
	o = o.with(600, 1, 0)
	childCounts := []int{1, 10, 50, 100}

	// One synthetic transaction: a root calling n children whose total
	// work is ~1ms, the scale of a real OLTP transaction — overhead
	// percentages are relative to realistic transaction durations, as
	// in the paper's measurement.
	const txnWork = time.Millisecond
	runTxns := func(p *tprofiler.Profiler, n int) time.Duration {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("child%03d", i)
		}
		workPerChild := txnWork / time.Duration(n)
		start := time.Now()
		for t := 0; t < o.Count; t++ {
			tc := p.StartTxn()
			root := tc.Enter("root")
			for i := 0; i < n; i++ {
				tok := tc.Enter(names[i])
				busyWait(workPerChild)
				tc.Exit(tok)
			}
			tc.Exit(root)
			tc.End()
		}
		return time.Since(start)
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 5 (left): profiling overhead vs instrumented children\n")
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "children", "tprofiler", "dtrace-like")
	for _, n := range childCounts {
		base := runTxns(nil, n)
		tp := tprofiler.New()
		tpTime := runTxns(tp, n)
		dt := tprofiler.New()
		dt.ProbeCost = 2 * time.Microsecond // binary-probe cost per event
		dtTime := runTxns(dt, n)
		tpOv := 100 * (float64(tpTime)/float64(base) - 1)
		dtOv := 100 * (float64(dtTime)/float64(base) - 1)
		if tpOv < 0 {
			tpOv = 0
		}
		if dtOv < 0 {
			dtOv = 0
		}
		fmt.Fprintf(&b, "%-10d %13.1f%% %13.1f%%\n", n, tpOv, dtOv)
		data[fmt.Sprintf("tprofiler/%d", n)] = tpOv
		data[fmt.Sprintf("dtrace/%d", n)] = dtOv
	}
	return Experiment{ID: "fig5L", Title: "TProfiler vs DTrace overhead", Text: b.String(), Data: data}, nil
}

func busyWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Figure5Runs reproduces fig. 5 (right): profiling runs needed to
// localize the variance sources, naive vs TProfiler's guided search.
func Figure5Runs(o Opts) (Experiment, error) {
	if o.Seed == 0 {
		o.Seed = 1
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 5 (right): profiling runs to find the variance sources\n")
	fmt.Fprintf(&b, "%-28s %16s %10s\n", "call graph", "naive", "TProfiler")
	for _, m := range []tprofiler.Model{
		{Fanout: 4, Depth: 6, Budget: 50, TopK: 3, Culprits: 2},
		{Fanout: 6, Depth: 8, Budget: 50, TopK: 3, Culprits: 2},
		{Fanout: 8, Depth: 10, Budget: 100, TopK: 5, Culprits: 3},
		{Fanout: 10, Depth: 15, Budget: 100, TopK: 5, Culprits: 3},
	} {
		naive := m.NaiveRuns()
		guided := m.GuidedRuns(o.Seed)
		label := fmt.Sprintf("fanout=%d depth=%d", m.Fanout, m.Depth)
		fmt.Fprintf(&b, "%-28s %16.3g %10d\n", label, naive, guided)
		data[label+"/naive"] = naive
		data[label+"/guided"] = float64(guided)
	}
	return Experiment{ID: "fig5R", Title: "Runs needed vs naive profiling", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 6 — out-of-the-box unpredictability (Appendix C.1's context).
// ---------------------------------------------------------------------

// Figure6 reproduces fig. 6: mean, standard deviation and p99 of TPC-C
// latency on the three stock engines.
func Figure6(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 800)
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 6: out-of-the-box latency dispersion (TPC-C)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %8s %8s\n", "engine", "mean ms", "stddev", "p99", "σ/mean", "p99/mean")

	record := func(name string, s stats.Summary) {
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %10.3f %8.2f %8.2f\n",
			name, s.Mean, s.StdDev, s.P99, s.CoV, s.P99/s.Mean)
		data[name+"/cov"] = s.CoV
		data[name+"/p99overmean"] = s.P99 / s.Mean
	}

	// The MySQL leg runs below saturation: dispersion must come from
	// the engine, not from open-loop backlog growth.
	myOpts := o
	myOpts.Rate = 600
	my := MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, Seed: o.Seed})
	r1, err := runOn(my, contendedTPCC(), myOpts)
	my.Close()
	if err != nil {
		return Experiment{}, err
	}
	record("mysql", r1.Overall)

	pgOpts := o
	pgOpts.Rate = 400
	pg := PostgresMode(ModeOpts{Seed: o.Seed})
	r2, err := runOn(pg, workload.NewTPCC(workload.TPCCConfig{Warehouses: 8}), pgOpts)
	pg.Close()
	if err != nil {
		return Experiment{}, err
	}
	record("postgres", r2.Overall)

	vd, err := runVoltDB(2, o)
	if err != nil {
		return Experiment{}, err
	}
	record("voltdb", vd.Total)

	return Experiment{ID: "fig6", Title: "Out-of-the-box dispersion", Text: b.String(), Data: data}, nil
}

// runVoltDB drives the queue-based engine at the experiment's offered
// load with o.Clients concurrent submitters.
func runVoltDB(workers int, o Opts) (queuesim.Stats, error) {
	srv := queuesim.New(queuesim.Config{
		Workers:       workers,
		ServiceMedian: 2 * time.Millisecond,
		ServiceSigma:  0.4,
		Seed:          o.Seed + 77,
	})
	defer srv.Stop()
	perClient := o.Count / o.Clients
	if perClient == 0 {
		perClient = 1
	}
	var wg sync.WaitGroup
	interval := time.Duration(float64(o.Clients) / o.Rate * float64(time.Second))
	for c := 0; c < o.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, _, err := srv.Submit(); err != nil {
					return
				}
				if interval > 0 {
					time.Sleep(interval)
				}
			}
		}()
	}
	wg.Wait()
	return srv.Stats(), nil
}

// ---------------------------------------------------------------------
// Figure 7 — VoltDB worker threads.
// ---------------------------------------------------------------------

// Figure7 reproduces fig. 7: worker-count sweep on the queue engine
// (ratios: 2 workers / N workers).
func Figure7(o Opts) (Experiment, error) {
	o = o.with(600, 24, 900)
	base, err := runVoltDB(2, o)
	if err != nil {
		return Experiment{}, err
	}
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 7: VoltDB-mode worker threads (ratios 2-workers/N-workers)\n")
	fmt.Fprintf(&b, "queue share of variance at 2 workers: %.1f%%\n", 100*base.QueueVarianceShare)
	data["queueShare"] = base.QueueVarianceShare
	fmt.Fprintf(&b, "%-8s %10s %10s %10s\n", "workers", "mean", "variance", "p99")
	for _, n := range []int{8, 12, 16, 24} {
		r, err := runVoltDB(n, o)
		if err != nil {
			return Experiment{}, err
		}
		ratio := stats.RatioOf(base.Total, r.Total)
		fmt.Fprintf(&b, "%-8d %9.2fx %9.2fx %9.2fx\n", n, ratio.Mean, ratio.Variance, ratio.P99)
		data[fmt.Sprintf("%d/variance", n)] = ratio.Variance
		data[fmt.Sprintf("%d/mean", n)] = ratio.Mean
	}
	return Experiment{ID: "fig7", Title: "VoltDB worker threads", Text: b.String(), Data: data}, nil
}

// ---------------------------------------------------------------------
// Figure 8 — correlation of age and remaining time.
// ---------------------------------------------------------------------

// Figure8 reproduces fig. 8: per TPC-C transaction type, the Pearson
// correlation between a transaction's age at a lock wait and its
// remaining time — near zero, motivating Theorem 1's i.i.d. model.
func Figure8(o Opts) (Experiment, error) {
	o = o.with(2500, 32, 800)
	db := MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, SampleAge: true, Seed: o.Seed})
	defer db.Close()
	if _, err := runOn(db, contendedTPCC(), o); err != nil {
		return Experiment{}, err
	}
	samples := db.AgeSamples()
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Figure 8: corr(age, remaining time) at lock waits, per TPC-C type\n")
	fmt.Fprintf(&b, "%-14s %8s %10s\n", "type", "n", "corr")
	tags := make([]string, 0, len(samples))
	for tag := range samples {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	var all []engine.AgeSample
	for _, tag := range tags {
		ss := samples[tag]
		all = append(all, ss...)
		if len(ss) < 10 {
			continue
		}
		corr := corrOf(ss)
		fmt.Fprintf(&b, "%-14s %8d %10.3f\n", tag, len(ss), corr)
		data[tag] = corr
		data[tag+"/n"] = float64(len(ss))
	}
	if len(all) >= 10 {
		data["ALL"] = corrOf(all)
		data["ALL/n"] = float64(len(all))
		fmt.Fprintf(&b, "%-14s %8d %10.3f\n", "ALL", len(all), data["ALL"])
	}
	return Experiment{ID: "fig8", Title: "Age vs remaining time", Text: b.String(), Data: data}, nil
}

func corrOf(ss []engine.AgeSample) float64 {
	var c stats.Cov
	for _, s := range ss {
		c.Add(s.Age, s.Remaining)
	}
	return c.Correlation()
}

// ---------------------------------------------------------------------
// Appendix C.1 — uniform transactions stay unpredictable.
// ---------------------------------------------------------------------

// AppendixC1 reproduces App. C.1: even a pure New-Order-only workload
// with a fixed number of items keeps a large σ/mean and p99/mean.
func AppendixC1(o Opts) (Experiment, error) {
	o = o.with(1500, 32, 700)
	db := MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, Seed: o.Seed})
	defer db.Close()
	wl := workload.NewUniformTPCC(workload.TPCCConfig{Warehouses: 2}, 10)
	res, err := runOn(db, wl, o)
	if err != nil {
		return Experiment{}, err
	}
	s := res.Overall
	var b strings.Builder
	fmt.Fprintf(&b, "Appendix C.1: New-Order-only, fixed 10 items per txn\n")
	fmt.Fprintf(&b, "mean=%.3fms σ=%.3fms p99=%.3fms  σ/mean=%.2f p99/mean=%.2f\n",
		s.Mean, s.StdDev, s.P99, s.CoV, s.P99/s.Mean)
	return Experiment{ID: "appC1", Title: "Uniform transactions stay unpredictable", Text: b.String(),
		Data: map[string]float64{"cov": s.CoV, "p99overmean": s.P99 / s.Mean}}, nil
}

// ---------------------------------------------------------------------
// Theorem 1 — empirical Lp comparison.
// ---------------------------------------------------------------------

// Theorem1 runs the pure scheduling simulator: expected Lp norms for
// VATS, FCFS and RS over random menus with i.i.d. remaining times.
func Theorem1(o Opts) (Experiment, error) {
	if o.Seed == 0 {
		o.Seed = 13
	}
	if o.Count <= 0 {
		o.Count = 400
	}
	rng := xrand.New(o.Seed)
	menu := sched.RandomMenu(12, rng)
	draw := func() float64 { return rng.ExpFloat64() * 2 }
	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Theorem 1: expected Lp norms over a random menu (%d trials)\n", o.Count)
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "p", "VATS", "FCFS", "RS")
	for _, p := range []float64{1, 2, 4} {
		v := sched.ExpectedLp(menu, draw, sched.EldestFirst{}, p, o.Count, o.Seed+1)
		f := sched.ExpectedLp(menu, draw, sched.ArrivalOrder{}, p, o.Count, o.Seed+1)
		r := sched.ExpectedLp(menu, draw, sched.Random{}, p, o.Count, o.Seed+1)
		fmt.Fprintf(&b, "p=%-4.0f %10.2f %10.2f %10.2f\n", p, v, f, r)
		data[fmt.Sprintf("vats/p%.0f", p)] = v
		data[fmt.Sprintf("fcfs/p%.0f", p)] = f
		data[fmt.Sprintf("rs/p%.0f", p)] = r
	}
	return Experiment{ID: "thm1", Title: "VATS Lp-optimality (empirical)", Text: b.String(), Data: data}, nil
}
