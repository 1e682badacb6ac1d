package storage_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"vats/internal/buffer"
	"vats/internal/storage"
)

// headVersion is one committed state of a key: the writer-assigned
// version id its row carries, or a deletion.
type headVersion struct {
	cts  uint64
	ver  uint64
	tomb bool
}

// headObs is one snapshot read: what a reader at readTS got for key.
type headObs struct {
	key, readTS, ver uint64
	found            bool
}

// closed reports whether c is closed, without blocking.
func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// headRow encodes key and version id, padded to n bytes (n >= 16).
func headRow(key, ver uint64, n int) []byte {
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint64(b[8:], ver)
	return b
}

// TestRowHeadConcurrent runs transactional writers that own disjoint
// keys and update (in place and relocating), delete, re-insert, commit
// and abort them, beside snapshot readers, snapshot scanners,
// read-committed readers and a GC loop. Afterwards every snapshot
// observation must equal the version its key had committed at or below
// the reader's timestamp, and the table's invariants must hold.
func TestRowHeadConcurrent(t *testing.T) {
	const (
		writers = 4
		keys    = 256
		txns    = 1500
		readers = 3
		// Each reader runs at least minRuns rounds, then keeps going
		// until the writers finish, up to maxRuns (which bounds the
		// observations kept for the final check).
		minRuns = 200
		maxRuns = 2000
	)
	pool := buffer.NewPool(buffer.Config{Capacity: 4096, PageSize: 1024})
	tab := storage.NewTable("heads", 1, pool)
	clock := tab.Clock()

	// history[k] lists key k's committed versions in commit order; only
	// k's owner appends, and it is read after every goroutine stopped.
	history := make([][]headVersion, keys)
	var nextVer atomic.Uint64
	h0 := pool.NewHandle()
	for k := uint64(0); k < keys; k++ {
		ver := nextVer.Add(1)
		if err := tab.Insert(h0, k, headRow(k, ver, 24)); err != nil {
			t.Fatal(err)
		}
		history[k] = append(history[k], headVersion{cts: clock.ReadTS(), ver: ver})
	}

	var nextWID atomic.Uint64
	var wg sync.WaitGroup
	var writersDone sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+readers) // one send per goroutine at most

	writersDone.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer writersDone.Done()
			h := pool.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			// cur[k] is the committed row of each owned key (nil: deleted).
			cur := make(map[uint64][]byte)
			for k := uint64(w); k < keys; k += writers {
				cur[k] = headRow(k, history[k][0].ver, 24)
			}
			type undo struct {
				key uint64
				old []byte // nil: the key was absent
			}
			for i := 0; i < txns; i++ {
				wid := nextWID.Add(1)
				var log []undo
				next := make(map[uint64][]byte)
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k := uint64(w + writers*rng.Intn(keys/writers))
					if _, done := next[k]; done {
						continue
					}
					old := cur[k]
					var err error
					var row []byte
					switch {
					case old == nil:
						row = headRow(k, nextVer.Add(1), 16+rng.Intn(48))
						err = tab.InsertTxn(h, wid, k, row)
					case rng.Intn(8) == 0:
						err = tab.DeleteTxn(h, wid, k)
					default:
						row = headRow(k, nextVer.Add(1), 16+rng.Intn(48))
						err = tab.UpdateTxn(h, wid, k, row)
					}
					if err != nil {
						errc <- err
						return
					}
					log = append(log, undo{k, old})
					next[k] = row
				}
				if rng.Intn(4) == 0 {
					for j := len(log) - 1; j >= 0; j-- {
						u := log[j]
						var err error
						switch {
						case u.old == nil:
							err = tab.DeleteTxn(h, wid, u.key)
						case next[u.key] == nil:
							err = tab.InsertTxn(h, wid, u.key, u.old)
						default:
							err = tab.UpdateTxn(h, wid, u.key, u.old)
						}
						if err != nil {
							errc <- err
							return
						}
					}
					for _, u := range log {
						tab.StampAbort(wid, u.key)
					}
					continue
				}
				cts := clock.Allocate()
				for _, u := range log {
					tab.StampCommit(wid, u.key, cts)
				}
				for k, row := range next {
					v := headVersion{cts: cts, tomb: row == nil}
					if row != nil {
						v.ver = binary.LittleEndian.Uint64(row[8:])
					}
					history[k] = append(history[k], v)
					cur[k] = row
				}
				clock.Complete(cts)
			}
		}(w)
	}

	obs := make([][]headObs, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := pool.NewHandle()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var buf []byte
			for i := 0; i < maxRuns && (i < minRuns || !closed(stop)); i++ {
				ts := clock.BeginRead()
				for j := 0; j < 16; j++ {
					k := uint64(rng.Intn(keys))
					out, err := tab.SnapshotGetInto(h, k, ts, buf[:0])
					switch {
					case errors.Is(err, storage.ErrKeyNotFound):
						obs[r] = append(obs[r], headObs{key: k, readTS: ts})
					case err != nil:
						errc <- err
						clock.EndRead(ts)
						return
					default:
						obs[r] = append(obs[r], headObs{key: k, readTS: ts, ver: binary.LittleEndian.Uint64(out[8:]), found: true})
						buf = out
					}
				}
				lo := uint64(rng.Intn(keys))
				seen := make(map[uint64]bool)
				err := tab.SnapshotScan(h, lo, lo+31, ts, func(k uint64, row []byte) bool {
					seen[k] = true
					obs[r] = append(obs[r], headObs{key: k, readTS: ts, ver: binary.LittleEndian.Uint64(row[8:]), found: true})
					return true
				})
				if err != nil {
					errc <- err
					clock.EndRead(ts)
					return
				}
				for k := lo; k <= lo+31 && k < keys; k++ {
					if !seen[k] {
						obs[r] = append(obs[r], headObs{key: k, readTS: ts})
					}
				}
				clock.EndRead(ts)

				// A read-committed read must return some whole row of
				// the key asked for, never a torn or foreign image.
				k := uint64(rng.Intn(keys))
				out, err := tab.GetInto(h, k, buf[:0])
				if err == nil && (len(out) < 16 || binary.LittleEndian.Uint64(out) != k) {
					errc <- errors.New("read-committed read returned another key's row")
					return
				}
			}
		}(r)
	}

	var gcRuns int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !closed(stop) {
			tab.GC(clock.LowWater())
			gcRuns++
		}
	}()

	writersDone.Wait()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	checked := 0
	for _, list := range obs {
		for _, o := range list {
			hist := history[o.key]
			i := sort.Search(len(hist), func(i int) bool { return hist[i].cts > o.readTS }) - 1
			if i < 0 {
				t.Fatalf("key %d: no version at or below readTS %d", o.key, o.readTS)
			}
			want := hist[i]
			if o.found != !want.tomb || (o.found && o.ver != want.ver) {
				t.Fatalf("key %d at readTS %d: got version %d (found %v), want %+v", o.key, o.readTS, o.ver, o.found, want)
			}
			checked++
		}
	}
	h := pool.NewHandle()
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
	tab.GC(clock.LowWater())
	if err := tab.CheckInvariants(h); err != nil {
		t.Fatal(err)
	}
	st := tab.MVCCStats()
	t.Logf("%d snapshot observations checked; %d GC passes freed %d versions; %d chain walks", checked, gcRuns, st.GCFreed, st.ChainWalks)
	if st.ChainWalks == 0 || st.GCFreed == 0 {
		t.Fatalf("no chain walks or no GC: %+v", st)
	}
}
