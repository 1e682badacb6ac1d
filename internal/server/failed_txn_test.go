package server

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPipelinedBurstAfterFailedStatementRollsBack pins the half-commit
// fix. Two connections pipeline whole transfers over the same two rows
// in opposite key order — Begin, Get, Get, Update, Update, Commit, six
// frames written before any reply is read — so their lock upgrades
// deadlock and one of them loses a statement. Every transfer writes a
// pair of balances that sums to total, whatever it found, so the sum
// survives any interleaving of whole transfers and breaks as soon as
// half of one commits. The rest of a victim's burst must be refused:
// its Commit may not report success and the sum must hold.
func TestPipelinedBurstAfterFailedStatementRollsBack(t *testing.T) {
	_, addr := startServer(t, Config{})
	setup := dialT(t, addr)
	if err := setup.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	const total = 1000
	keyPL := func(key uint64) []byte { return AppendU64(AppendStr16(nil, "acct"), key) }
	rowPL := func(key, bal uint64) []byte {
		return AppendBytes32(keyPL(key), binary.LittleEndian.AppendUint64(nil, bal))
	}
	for key := uint64(1); key <= 2; key++ {
		if err := setup.Insert(0, "acct", key, binary.LittleEndian.AppendUint64(nil, total/2)); err != nil {
			t.Fatal(err)
		}
	}

	var victims, halfCommits atomic.Int64
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		c := dialT(t, addr)
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			first, second := 1+w, 2-w // opposite lock order on the two connections
			c.mu.Lock()
			defer c.mu.Unlock()
			var out []byte
			for i := uint64(0); victims.Load() < 3 && time.Now().Before(deadline); i++ {
				// Odd balances from one connection, even from the other:
				// two halves of different transfers never sum to total.
				bal := 2*(i%200) + w
				out = AppendFrame(out[:0], 0, OpBegin, 0, nil)
				out = AppendFrame(out, 0, OpGet, 0, keyPL(first))
				out = AppendFrame(out, 0, OpGet, 0, keyPL(second))
				out = AppendFrame(out, 0, OpUpdate, 0, rowPL(first, bal))
				out = AppendFrame(out, 0, OpUpdate, 0, rowPL(second, total-bal))
				out = AppendFrame(out, 0, OpCommit, 0, nil)
				if _, err := c.nc.Write(out); err != nil {
					t.Errorf("conn %d: write: %v", w, err)
					return
				}
				failed := false
				for f := 0; f < 6; f++ {
					fr, err := c.readFrame()
					if err != nil {
						t.Errorf("conn %d: reply %d: %v", w, f, err)
						return
					}
					switch {
					case fr.Op != StatusOK:
						failed = true
					case f == 5 && failed:
						halfCommits.Add(1)
					}
				}
				if failed {
					victims.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if victims.Load() == 0 {
		t.Fatal("no statement failed in 20s of conflicting bursts; the test exercised nothing")
	}
	if n := halfCommits.Load(); n != 0 {
		t.Errorf("%d of %d bursts with a failed statement still had their Commit answered StatusOK", n, victims.Load())
	}
	var sum uint64
	for key := uint64(1); key <= 2; key++ {
		row, err := setup.Get(0, "acct", key)
		if err != nil || len(row) != 8 {
			t.Fatalf("get %d: %q %v", key, row, err)
		}
		sum += binary.LittleEndian.Uint64(row)
	}
	if sum != total {
		t.Errorf("balances sum to %d, want %d: half of a failed transfer was committed", sum, total)
	}
}
