package disk

import (
	"testing"
	"time"
)

func TestPlanDeterminism(t *testing.T) {
	cfg := FaultConfig{IOErrorP: 0.1, DropFsyncP: 0.05, StallP: 0.02, StallDur: time.Millisecond, CrashOp: 500, CrashTorn: -1}
	a := NewPlan(42, cfg)
	b := NewPlan(42, cfg)
	if a.ScheduleDigest(2000) != b.ScheduleDigest(2000) {
		t.Fatal("same seed produced different schedules")
	}
	for i := int64(1); i <= 1000; i++ {
		for _, k := range []opKind{opWrite, opFsync} {
			if a.at(i, k) != b.at(i, k) {
				t.Fatalf("op %d kind %d differs across identical plans", i, k)
			}
		}
	}
	if NewPlan(43, cfg).ScheduleDigest(2000) == a.ScheduleDigest(2000) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanCrashPoint(t *testing.T) {
	p := NewPlan(7, FaultConfig{CrashOp: 3, CrashTorn: 0.5})
	if o := p.next(opWrite); o.crash || o.ioErr {
		t.Fatalf("op 1 should be benign: %+v", o)
	}
	if o := p.next(opWrite); o.crash {
		t.Fatalf("op 2 should be benign: %+v", o)
	}
	o := p.next(opFsync)
	if !o.crash || o.torn != 0.5 {
		t.Fatalf("op 3 should crash with torn 0.5: %+v", o)
	}
	if !p.Crashed() {
		t.Fatal("plan not marked crashed")
	}
	// Every later op is dead.
	if o := p.next(opWrite); !o.crash || o.torn != 0 {
		t.Fatalf("post-crash op should be dead: %+v", o)
	}
}

func TestPlanErrorAndDropRates(t *testing.T) {
	p := NewPlan(99, FaultConfig{IOErrorP: 0.2, DropFsyncP: 0.3})
	errs, drops, okFsyncs := 0, 0, 0
	const n = 20000
	for i := int64(1); i <= n; i++ {
		if p.at(i, opWrite).ioErr {
			errs++
		}
		o := p.at(i, opFsync)
		if o.dropFsync && o.ioErr {
			t.Fatal("an op cannot both fail and drop")
		}
		if !o.ioErr {
			okFsyncs++
			if o.dropFsync {
				drops++
			}
		}
	}
	if f := float64(errs) / n; f < 0.17 || f > 0.23 {
		t.Fatalf("error rate %.3f, want ~0.2", f)
	}
	// Drops are sampled after the error gate, so measure DropFsyncP
	// among non-erroring fsyncs.
	if f := float64(drops) / float64(okFsyncs); f < 0.27 || f > 0.33 {
		t.Fatalf("drop rate %.3f, want ~0.3", f)
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(11, i)
		if seen[s] {
			t.Fatalf("duplicate derived seed at %d", i)
		}
		seen[s] = true
	}
}
