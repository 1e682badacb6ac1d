package harness

import (
	"time"

	"vats/internal/buffer"
	"vats/internal/disk"
	"vats/internal/engine"
	"vats/internal/lock"
	"vats/internal/obs"
	"vats/internal/tprofiler"
	"vats/internal/wal"
)

// Engine presets mirroring the three systems the paper studies. The
// presets differ in which variance pathology dominates, matching the
// TProfiler findings of §4 and Appendix A:
//
//	MySQL mode    — record 2PL + buffer pool; lock waits dominate, and
//	                a small pool adds the LRU-mutex pathology.
//	Postgres mode — a slow single-stream WAL; the global flush lock
//	                (WALWriteLock) dominates.
//	VoltDB mode   — runVoltDB: calls wait in one admit FIFO (shedding
//	                off) for N workers; queueing delay dominates.

// ModeOpts tweaks a preset.
type ModeOpts struct {
	Scheduler   lock.Scheduler
	BufferPages int
	// PageSize overrides the 4096-byte default.
	PageSize int
	// DataMedian overrides the data device's median latency (0 =
	// default). The buffer-pool experiments set it to ~10µs, modelling
	// page reads served from the OS page cache as in the paper's 2-WH
	// configuration, so the LRU mutex — not the device — is the
	// contended resource.
	DataMedian  time.Duration
	LRUPolicy   buffer.UpdatePolicy
	FlushPolicy wal.FlushPolicy
	// LogDevices is the number of log devices, one WAL stream each
	// (0 = 1; 2 = parallel logging).
	LogDevices int
	// LogBlockSize overrides the log device block size (0 = default).
	LogBlockSize int
	// LogMedian overrides the log device median latency (0 = default).
	LogMedian time.Duration
	Profiler  *tprofiler.Profiler
	SampleAge bool
	Seed      int64
	// Obs wires live observability through the engine (nil = the
	// disabled-by-default obs.Default).
	Obs *obs.Obs
}

// MySQLMode builds a MySQL-like engine: moderately fast data and log
// devices, record locking front and center.
func MySQLMode(o ModeOpts) *engine.DB {
	if o.BufferPages == 0 {
		o.BufferPages = 4096
	}
	if o.LogDevices == 0 {
		o.LogDevices = 1
	}
	dataMedian := 100 * time.Microsecond
	if o.DataMedian > 0 {
		dataMedian = o.DataMedian
	}
	dataCfg := disk.Config{
		Name:          "data",
		MedianLatency: dataMedian,
		Sigma:         0.3,
		TailP:         0.01,
		TailX:         5,
		BlockSize:     4096,
		PerByte:       2 * time.Nanosecond,
		Seed:          o.Seed + 1,
	}
	logMedian := 350 * time.Microsecond
	if o.LogMedian > 0 {
		logMedian = o.LogMedian
	}
	blk := 4096
	if o.LogBlockSize > 0 {
		blk = o.LogBlockSize
	}
	var logs []disk.Device
	for i := 0; i < o.LogDevices; i++ {
		logs = append(logs, disk.New(disk.Config{
			Name:          "log",
			MedianLatency: logMedian,
			Sigma:         0.5,
			TailP:         0.02,
			TailX:         6,
			BlockSize:     blk,
			PerByte:       4 * time.Nanosecond,
			Seed:          o.Seed + 2 + int64(i),
		}))
	}
	pageSize := 4096
	if o.PageSize > 0 {
		pageSize = o.PageSize
	}
	return engine.Open(engine.Config{
		Scheduler:          o.Scheduler,
		LockTimeout:        2 * time.Second,
		DeadlockInterval:   time.Millisecond,
		BufferCapacity:     o.BufferPages,
		PageSize:           pageSize,
		LRUPolicy:          o.LRUPolicy,
		LRUCriticalCost:    25 * time.Microsecond,
		DataDevice:         disk.New(dataCfg),
		LogDevices:         logs,
		FlushPolicy:        o.FlushPolicy,
		LogFlushInterval:   5 * time.Millisecond,
		Profiler:           o.Profiler,
		SampleAgeRemaining: o.SampleAge,
		Seed:               o.Seed,
		Obs:                o.Obs,
	})
}

// PostgresMode builds a Postgres-like engine: the WAL device is slow
// and highly variable, and all committers serialize on it (the
// WALWriteLock convoy) unless LogDevices gives it a second stream.
func PostgresMode(o ModeOpts) *engine.DB {
	if o.LogMedian == 0 {
		o.LogMedian = 1200 * time.Microsecond
	}
	if o.BufferPages == 0 {
		o.BufferPages = 4096
	}
	if o.LogDevices == 0 {
		o.LogDevices = 1
	}
	blk := 8192 // Postgres's default block size
	if o.LogBlockSize > 0 {
		blk = o.LogBlockSize
	}
	var logs []disk.Device
	for i := 0; i < o.LogDevices; i++ {
		logs = append(logs, disk.New(disk.Config{
			Name:          "wal",
			MedianLatency: o.LogMedian,
			Sigma:         0.7,
			TailP:         0.03,
			TailX:         5,
			BlockSize:     blk,
			PerByte:       6 * time.Nanosecond,
			Seed:          o.Seed + 20 + int64(i),
		}))
	}
	return engine.Open(engine.Config{
		Scheduler:        o.Scheduler,
		LockTimeout:      2 * time.Second,
		DeadlockInterval: time.Millisecond,
		BufferCapacity:   o.BufferPages,
		PageSize:         4096,
		DataDevice: disk.New(disk.Config{
			Name:          "data",
			MedianLatency: 80 * time.Microsecond,
			Sigma:         0.2,
			BlockSize:     4096,
			Seed:          o.Seed + 10,
		}),
		LogDevices:         logs,
		FlushPolicy:        o.FlushPolicy,
		Profiler:           o.Profiler,
		SampleAgeRemaining: o.SampleAge,
		Seed:               o.Seed,
		Obs:                o.Obs,
	})
}
