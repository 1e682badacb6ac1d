package main

// The metric names and units the benchmark emits — BENCHMARK.json lists
// the same ones — and the derivation of the per-layer numbers from the
// traced phase.

import "fmt"

type metricDef struct{ name, unit string }

// endToEnd are the metrics BENCHMARK.json gates with a regression
// bound. The three latency statistics of r2 and the CPU cost per
// transaction are measured and reported too, but as per-layer metrics
// (load.lat_*, proc.cpu_us_per_txn): on the two workloads whose latency
// is not simulated-device sleep (wire_read, commit_file) they follow the
// host's speed from one minute to the next and could not be brought to
// repeat within the widest bound the driver allows. README, "Frozen
// numbers", has the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slo_rate_tps", "txn/s"},
	{"peak_tps", "txn/s"},
	{"mem_mb", "MiB"},
}

var perLayerDefs = []metricDef{
	// the generator: validity of every latency metric
	{"load.samples", "count"},
	{"load.lag_p50_ms", "ms"},
	{"load.lag_p99_ms", "ms"},
	{"load.lat_p50_ms", "ms"},
	{"load.lat_p99_ms", "ms"},
	{"load.lat_std_ms", "ms"},
	{"load.lat_mean_ms", "ms"},
	{"load.lat_p99_r1_ms", "ms"},
	{"load.lat_p99_r3_ms", "ms"},
	{"load.backlog_end_r3", "count"},
	{"load.retries_per_txn", "ratio"},
	{"load.fail_frac", "ratio"},
	// wire front end
	{"server.ping_rtt_us", "us"},
	{"server.codec_ns_per_frame", "ns"},
	{"server.frames_per_txn", "count"},
	{"server.bytes_per_txn", "B"},
	{"admit.admitted", "count"},
	{"admit.shed", "count"},
	{"admit.wait_p99_ms", "ms"},
	{"admit.eff_cap", "count"},
	// engine calls made by the benchmark's terminals: mean self time
	{"engine.begin_us", "us"},
	{"engine.read_us", "us"},
	{"engine.write_us", "us"},
	{"engine.commit_us", "us"},
	{"engine.txn_us", "us"},
	{"engine.aborts", "count"},
	{"engine.retries", "count"},
	{"lock.acquires_per_txn", "count"},
	{"lock.wait_frac", "ratio"},
	{"lock.wait_ms_per_txn", "ms"},
	{"lock.deadlocks", "count"},
	{"lock.timeouts", "count"},
	{"lock.upgrade_waits", "count"},
	{"buffer.hit_rate", "ratio"},
	{"buffer.misses_per_txn", "count"},
	{"buffer.evictions_per_txn", "count"},
	{"buffer.writebacks_per_txn", "count"},
	{"buffer.mutex_wait_ms_per_txn", "ms"},
	{"mvcc.chain_steps_per_read", "count"},
	{"mvcc.gc_backlog_end", "count"},
	{"exec.scan_us_per_row", "us"},
	{"exec.rows_per_scan", "count"},
	{"wal.commits_per_flush", "count"},
	{"wal.grouped_frac", "ratio"},
	{"wal.flushes_per_s", "1/s"},
	{"wal.bytes_per_txn", "B"},
	{"wal.recovery_ms", "ms"},
	{"disk.log_syncs_per_txn", "count"},
	{"disk.log_sync_ms_mean", "ms"},
	{"disk.log_sync_ms_p99", "ms"},
	{"disk.log_busy_frac", "ratio"},
	{"disk.log_queue_max", "count"},
	{"disk.data_reads_per_txn", "count"},
	{"disk.data_read_ms_mean", "ms"},
	{"disk.data_busy_frac", "ratio"},
	{"disk.bytes_per_user_byte", "ratio"},
	// the system's own sensor, read after the traced phase
	{"obs.sampled", "count"},
	{"obs.share.lock_wait", "ratio"},
	{"obs.share.log_flush", "ratio"},
	{"obs.share.buf_io", "ratio"},
	{"obs.share.buf_pool_mutex", "ratio"},
	{"obs.share.net_queue_wait", "ratio"},
	{"obs.share.residual", "ratio"},
	{"obs.coverage", "ratio"},
	{"obs.overhead_p50_frac", "ratio"},
	{"obs.overhead_cpu_frac", "ratio"},
	{"proc.cpu_us_per_txn", "us"},
	{"proc.allocs_per_txn", "count"},
	{"proc.gc_pause_ms", "ms"},
}

// layerInputs is what the untraced phases contribute to the per-layer
// report.
type layerInputs struct {
	s1, s2, s3        openStats
	r2, shut          *phase
	retries           int64
	failed, attempted int64
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills out with every per-layer metric. Counters are Stats()
// deltas over the traced phase, call times are self times of the
// benchmark's spans, and ratios are per transaction the phase
// completed.
func perLayer(out map[string]metric, in *instance, tr *tracedRun, li layerInputs) {
	v := map[string]float64{}
	d, st, cl := tr.delta, tr.stats, tr.clients
	txns := float64(st.ok)
	secs := tr.p.dur.Seconds()
	us := func(span string) float64 { return tr.selfNs[span] / 1e3 }

	v["load.samples"] = float64(li.s2.ok)
	v["load.lag_p50_ms"] = li.s2.lagP50
	v["load.lag_p99_ms"] = li.s2.lagP99
	v["load.lat_p50_ms"] = li.s2.p50
	v["load.lat_p99_ms"] = li.s2.p99Sliced
	v["load.lat_std_ms"] = li.s2.stdSliced
	v["load.lat_mean_ms"] = li.s2.mean
	v["load.lat_p99_r1_ms"] = li.s1.p99
	v["load.lat_p99_r3_ms"] = li.s3.p99
	v["load.backlog_end_r3"] = float64(li.s3.backlogEnd)
	v["load.retries_per_txn"] = div(float64(li.retries), float64(li.attempted))
	v["load.fail_frac"] = div(float64(li.failed), float64(li.attempted))

	v["server.ping_rtt_us"] = tr.pingUs
	v["server.codec_ns_per_frame"] = codecNsPerFrame(tr.frames)
	v["server.frames_per_txn"] = div(float64(cl.frames), txns)
	v["server.bytes_per_txn"] = div(float64(cl.wireBytes), txns)
	v["admit.admitted"] = d["admit.admitted"]
	v["admit.shed"] = d["admit.shed"]
	v["admit.wait_p99_ms"] = tr.gauges["admit.wait_p99_ms"]
	v["admit.eff_cap"] = tr.gauges["admit.eff_cap"]

	v["engine.begin_us"] = us("engine.begin")
	v["engine.read_us"] = us("engine.read")
	v["engine.write_us"] = us("engine.write")
	v["engine.commit_us"] = us("engine.commit")
	v["engine.txn_us"] = us("engine.txn")
	v["engine.retries"] = float64(tr.p.retries.Load())
	v["engine.aborts"] = float64(tr.p.retries.Load() + tr.p.failed.Load())

	v["lock.acquires_per_txn"] = div(d["lock.acquires"], txns)
	v["lock.wait_frac"] = div(d["lock.waits"], d["lock.acquires"])
	v["lock.wait_ms_per_txn"] = div(d["lock.wait_ns"]/1e6, txns)
	v["lock.deadlocks"] = d["lock.deadlocks"]
	v["lock.timeouts"] = d["lock.timeouts"]
	v["lock.upgrade_waits"] = d["lock.upgrade_waits"]

	v["buffer.hit_rate"] = div(d["buffer.hits"], d["buffer.hits"]+d["buffer.misses"])
	v["buffer.misses_per_txn"] = div(d["buffer.misses"], txns)
	v["buffer.evictions_per_txn"] = div(d["buffer.evictions"], txns)
	v["buffer.writebacks_per_txn"] = div(d["buffer.writebacks"], txns)
	v["buffer.mutex_wait_ms_per_txn"] = div(d["buffer.mutex_wait_ns"]/1e6, txns)

	v["mvcc.chain_steps_per_read"] = div(d["mvcc.steps"], float64(cl.snapReads+cl.scanRows))
	v["mvcc.gc_backlog_end"] = tr.gauges["mvcc.versions"]
	v["exec.rows_per_scan"] = div(float64(cl.scanRows), float64(cl.scans))
	v["exec.scan_us_per_row"] = div(us("exec.scan"), v["exec.rows_per_scan"])

	commits := d["wal.flushes"] + d["wal.grouped"]
	v["wal.commits_per_flush"] = div(commits, d["wal.flushes"])
	v["wal.grouped_frac"] = div(d["wal.grouped"], commits)
	v["wal.flushes_per_s"] = d["wal.flushes"] / secs
	v["wal.bytes_per_txn"] = div(d["wal.bytes"], txns)
	v["wal.recovery_ms"] = in.recoveryMs

	var syncMs []float64
	for _, s := range tr.spans {
		if s.Name == "disk.log.sync" {
			syncMs = append(syncMs, float64(s.End-s.Start)/1e6)
		}
	}
	v["disk.log_syncs_per_txn"] = div(d["disk.log.syncs"], txns)
	v["disk.log_sync_ms_mean"] = div(d["disk.log.sync_ns"]/1e6, d["disk.log.syncs"])
	v["disk.log_sync_ms_p99"] = quantile(sorted(syncMs), 0.99)
	v["disk.log_busy_frac"] = d["disk.log.busy_ns"] / 1e9 / secs
	v["disk.log_queue_max"] = float64(in.sut.log.queueMax.Load())
	v["disk.data_reads_per_txn"] = div(d["disk.data.reads"], txns)
	v["disk.data_read_ms_mean"] = div(d["disk.data.read_ns"]/1e6, d["disk.data.reads"])
	v["disk.data_busy_frac"] = d["disk.data.busy_ns"] / 1e9 / secs
	v["disk.bytes_per_user_byte"] = div(d["disk.log.write_bytes"]+d["disk.data.write_bytes"], float64(cl.userBytes))

	shares := tr.shares
	v["obs.sampled"] = float64(tr.sampled)
	v["obs.share.lock_wait"] = shares["lock.wait"]
	v["obs.share.log_flush"] = shares["log.flush"]
	v["obs.share.buf_io"] = shares["buf.io"]
	v["obs.share.buf_pool_mutex"] = shares["buf.pool_mutex"]
	v["obs.share.net_queue_wait"] = shares["net.queue_wait"]
	v["obs.share.residual"] = tr.residual
	v["obs.coverage"] = div(tr.factorMeanMs, st.mean)
	v["obs.overhead_p50_frac"] = div(st.p50-li.s2.p50, li.s2.p50)
	cpuOff := div(float64(li.r2.cpuNs), float64(li.s2.ok))
	v["obs.overhead_cpu_frac"] = div(div(float64(tr.p.cpuNs), txns)-cpuOff, cpuOff)

	v["proc.cpu_us_per_txn"] = div(float64(li.shut.cpuNs)/1e3, float64(li.shut.done.Load()))
	v["proc.allocs_per_txn"] = div(float64(tr.mallocs), txns)
	v["proc.gc_pause_ms"] = ms(tr.gcPause)

	for _, m := range perLayerDefs {
		out[m.name] = metric{v[m.name], m.unit}
		delete(v, m.name)
	}
	if len(v) > 0 { // a derivation above names a metric the table does not
		panic(fmt.Sprint("benchmark: per-layer metrics missing from perLayerDefs: ", v))
	}
}
