package harness

import (
	"testing"
	"time"

	"vats/internal/engine"
	"vats/internal/lock"
	"vats/internal/workload"
)

func TestMySQLModeDefaults(t *testing.T) {
	db := MySQLMode(ModeOpts{Seed: 1})
	defer db.Close()
	if db.Locks().Scheduler().Name() != "FCFS" {
		t.Errorf("default scheduler = %s", db.Locks().Scheduler().Name())
	}
	if db.Pool().Capacity() != 4096 {
		t.Errorf("default pool = %d", db.Pool().Capacity())
	}
	if db.Pool().PageSize() != 4096 {
		t.Errorf("default page size = %d", db.Pool().PageSize())
	}
}

func TestMySQLModeOverrides(t *testing.T) {
	db := MySQLMode(ModeOpts{
		Scheduler:   lock.VATS{},
		BufferPages: 64,
		PageSize:    1024,
		DataMedian:  10 * time.Microsecond,
		Seed:        2,
	})
	defer db.Close()
	if db.Locks().Scheduler().Name() != "VATS" {
		t.Error("scheduler override lost")
	}
	if db.Pool().Capacity() != 64 || db.Pool().PageSize() != 1024 {
		t.Error("pool overrides lost")
	}
}

func TestPostgresModeRunsAWorkload(t *testing.T) {
	db := PostgresMode(ModeOpts{Seed: 3})
	defer db.Close()
	wl := workload.NewYCSB(workload.YCSBConfig{Records: 200})
	res, err := runOn(db, wl, Opts{Count: 60, Clients: 4, Rate: -1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Overall.N != 60 {
		t.Fatalf("n=%d errs=%d", res.Overall.N, res.Errors)
	}
}

func TestRunPooledMergesReps(t *testing.T) {
	res, err := runPooled(
		func() *engine.DB { return MySQLMode(ModeOpts{Seed: 4}) },
		func() workload.Workload { return workload.NewYCSB(workload.YCSBConfig{Records: 200}) },
		Opts{Count: 40, Clients: 2, Rate: -1, Seed: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 reps × 40 measured transactions (warmup excluded) = 80.
	if res.Overall.N != 80 {
		t.Fatalf("pooled n = %d, want 80", res.Overall.N)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

// TestVoltDBModeQueueingUnderLoad checks the VoltDB mode's queue on small
// counts: one worker under eight closed-loop clients is saturated, so
// queueing carries most of the latency variance (Appendix A).
func TestVoltDBModeQueueingUnderLoad(t *testing.T) {
	o := Opts{Count: 200, Clients: 8, Rate: 800, Seed: 3}
	_, share, err := runVoltDB(1, o)
	if err != nil {
		t.Fatal(err)
	}
	if share <= 0.8 {
		t.Errorf("1 worker, 8 clients: queue variance share %.3f, want > 0.8", share)
	}
}

// TestVoltDBModeMoreWorkersReduceWaits checks the fig. 7 mechanism: at the
// same offered load, more VoltDB workers cut the mean latency.
func TestVoltDBModeMoreWorkersReduceWaits(t *testing.T) {
	o := Opts{Count: 200, Clients: 8, Rate: 800, Seed: 3}
	one, _, err := runVoltDB(1, o)
	if err != nil {
		t.Fatal(err)
	}
	four, _, err := runVoltDB(4, o)
	if err != nil {
		t.Fatal(err)
	}
	if four.Mean >= one.Mean {
		t.Errorf("mean latency %.2fms at 4 workers, want below %.2fms at 1", four.Mean, one.Mean)
	}
}
