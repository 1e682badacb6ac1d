package harness

import (
	"fmt"
	"sort"
	"strings"

	"vats/internal/buffer"
	"vats/internal/engine"
	"vats/internal/lock"
	"vats/internal/stats"
	"vats/internal/wal"
	"vats/internal/workload"
)

// Table3 reproduces Table 3: the end-to-end impact of every
// modification the paper derives from TProfiler's findings, each
// against its own baseline:
//
//	MySQL    os_event_wait        → replace FCFS with VATS
//	MySQL    buf_pool_mutex_enter → replace mutex with spin lock (LLU)
//	MySQL    fil_flush            → flush-policy tuning (lazy write)
//	Postgres LWLockAcquireOrWait  → parallel logging
//	VoltDB   [waiting in queue]   → more worker threads
func Table3(o Opts) (Experiment, error) {
	o = o.with(2000, 32, 800)
	type row struct {
		system, finding, fix string
		ratio                stats.Ratio
	}
	var rows []row

	// 1. VATS (median of paired-run ratios; see schedulerComparison).
	vatsRatio, err := Table3SchedulerFix(o)
	if err != nil {
		return Experiment{}, err
	}
	rows = append(rows, row{"MySQL", "os_event_wait", "FCFS → VATS", vatsRatio})

	// 2. LLU under memory contention (closed loop; see Figure3LLU).
	bufPages, err := bufferDBPages(o.Seed)
	if err != nil {
		return Experiment{}, err
	}
	lruOpts := o
	lruOpts.Rate = -1
	runLRU := func(p buffer.UpdatePolicy) (Result, error) {
		return runPooled(func() *engine.DB { return bufferMode(bufPages/4, p, o.Seed) },
			func() workload.Workload { return bufferTPCC() }, lruOpts, 2)
	}
	eagerLRU, err := runLRU(buffer.EagerLRU)
	if err != nil {
		return Experiment{}, err
	}
	lazyLRU, err := runLRU(buffer.LazyLRU)
	if err != nil {
		return Experiment{}, err
	}
	rows = append(rows, row{"MySQL", "buf_pool_mutex_enter", "mutex → spin lock (LLU)",
		stats.RatioOf(eagerLRU.Overall, lazyLRU.Overall)})

	// 3. Flush-policy tuning (below saturation so both policies are
	// stable and the commit-path flush is the differentiator).
	flushOpts := o
	flushOpts.Rate = 600
	runFlush := func(p wal.FlushPolicy) (Result, error) {
		return runPooled(func() *engine.DB {
			return MySQLMode(ModeOpts{Scheduler: lock.FCFS{}, FlushPolicy: p, Seed: o.Seed})
		}, func() workload.Workload { return contendedTPCC() }, flushOpts, 2)
	}
	eagerF, err := runFlush(wal.EagerFlush)
	if err != nil {
		return Experiment{}, err
	}
	lazyF, err := runFlush(wal.LazyWrite)
	if err != nil {
		return Experiment{}, err
	}
	rows = append(rows, row{"MySQL", "fil_flush", "flush tuning (lazy write)",
		stats.RatioOf(eagerF.Overall, lazyF.Overall)})

	// 4. Parallel logging (Postgres), at the Postgres-mode stable rate.
	pgOpts := o
	pgOpts.Rate = 350
	pgWl := func() workload.Workload { return workload.NewTPCC(workload.TPCCConfig{Warehouses: 8}) }
	orig, err := runPooled(func() *engine.DB { return PostgresMode(ModeOpts{Seed: o.Seed}) }, pgWl, pgOpts, 2)
	if err != nil {
		return Experiment{}, err
	}
	par, err := runPooled(func() *engine.DB {
		return PostgresMode(ModeOpts{LogDevices: 2, Seed: o.Seed})
	}, pgWl, pgOpts, 2)
	if err != nil {
		return Experiment{}, err
	}
	rows = append(rows, row{"Postgres", "LWLockAcquireOrWait", "parallel logging",
		stats.RatioOf(orig.Overall, par.Overall)})

	// 5. VoltDB worker threads.
	vBase, _, err := runVoltDB(2, o)
	if err != nil {
		return Experiment{}, err
	}
	vMore, _, err := runVoltDB(8, o)
	if err != nil {
		return Experiment{}, err
	}
	rows = append(rows, row{"VoltDB", "[waiting in queue]", "2 → 8 worker threads",
		stats.RatioOf(vBase, vMore)})

	var b strings.Builder
	data := map[string]float64{}
	fmt.Fprintf(&b, "Table 3: impact of modifying each identified function (Orig./Modified)\n")
	fmt.Fprintf(&b, "%-9s %-22s %-26s %9s %9s %9s\n",
		"system", "identified function", "modification", "variance", "p99", "mean")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-22s %-26s %8.2fx %8.2fx %8.2fx\n",
			r.system, r.finding, r.fix, r.ratio.Variance, r.ratio.P99, r.ratio.Mean)
		data[r.finding+"/variance"] = r.ratio.Variance
		data[r.finding+"/p99"] = r.ratio.P99
		data[r.finding+"/mean"] = r.ratio.Mean
	}
	return Experiment{ID: "table3", Title: "Impact of each modification", Text: b.String(), Data: data}, nil
}

// Table3SchedulerFix runs just the first Table 3 row — the FCFS → VATS
// substitution on contended TPC-C — under the exact Table 3
// configuration, and returns the median paired-run ratio (FCFS over
// VATS). It is the smallest effect in the table, so the shape suite
// uses this entry point to re-check it on another seed without paying
// for the other four fixes again.
func Table3SchedulerFix(o Opts) (stats.Ratio, error) {
	o = o.with(2000, 32, 800)
	_, schedRatios, err := schedulerComparison(
		func() workload.Workload { return contendedTPCC() },
		[]lock.Scheduler{lock.FCFS{}, lock.VATS{}}, o)
	if err != nil {
		return stats.Ratio{}, err
	}
	return schedRatios["VATS"], nil
}

// Runner executes one experiment.
type Runner func(Opts) (Experiment, error)

// All maps experiment ids to runners — the per-experiment index from
// DESIGN.md. cmd/repro iterates this to regenerate every table and
// figure.
func All() map[string]Runner {
	return map[string]Runner{
		"table1":    Table1,
		"table2":    Table2,
		"table3":    Table3,
		"table4":    Table4,
		"fig2":      Figure2,
		"fig3L":     Figure3LLU,
		"fig3C":     Figure3BufferPool,
		"fig3R":     Figure3FlushPolicy,
		"fig4L":     Figure4Parallel,
		"fig4R":     Figure4BlockSize,
		"fig5L":     Figure5Overhead,
		"fig5R":     Figure5Runs,
		"fig6":      Figure6,
		"fig7":      Figure7,
		"fig8":      Figure8,
		"appC1":     AppendixC1,
		"thm1":      Theorem1,
		"ablation1": AblationConveyance,
	}
}

// IDs returns the experiment ids in a stable presentation order.
func IDs() []string {
	ids := make([]string, 0, len(All()))
	for id := range All() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
