package engine_test

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"vats/internal/engine"
	"vats/internal/obs"
	"vats/internal/storage"
	"vats/internal/tprofiler"
)

// TestCaptureDigest pins what the engine's span capture hands to its two
// consumers: one session runs 2,000 seeded transactions mixing every
// statement kind, commits and rollbacks, with a profiler configured and
// obs tracing every transaction. The digest folds the profiler's sorted
// call-tree path set and its transaction count; the variance engine's
// transaction count is pinned beside it. A changed digest means a span
// moved, appeared or vanished, or a transaction stopped being counted.
func TestCaptureDigest(t *testing.T) {
	const (
		wantDigest = uint64(0xf9680ff1805865ae)
		wantTxns   = 2000
		wantN      = 1755
	)
	prof := tprofiler.New()
	ob := obs.NewWith(obs.Config{
		Variance: obs.VarianceConfig{Window: time.Hour},
		Sampling: obs.SamplingConfig{Budget: -1},
	})
	db := engine.Open(engine.Config{Profiler: prof, Obs: ob})
	defer db.Close()
	tabs := digestTables(t, db)
	r := rand.New(rand.NewSource(20261019))
	s := db.NewSession()
	commits := 0
	for i := 0; i < wantTxns; i++ {
		tx := s.Begin()
		for k := 1 + r.Intn(5); k > 0; k-- {
			tab := tabs[r.Intn(len(tabs))]
			key := uint64(1 + r.Intn(64))
			row := make([]byte, 8+r.Intn(24))
			r.Read(row)
			var err error
			switch r.Intn(8) {
			case 0:
				_, err = tx.Get(tab, key)
			case 1:
				_, err = tx.GetForUpdate(tab, key)
			case 2:
				err = tx.Insert(tab, key, row)
			case 3:
				err = tx.Update(tab, key, row)
			case 4:
				err = tx.Delete(tab, key)
			case 5:
				err = tx.Scan(tab, key, key+8, func(uint64, []byte) bool { return true })
			case 6:
				tx.RecordQueueWait(time.Duration(r.Intn(50)) * time.Microsecond)
			default:
				tx.RecordNetQueueWait(time.Duration(r.Intn(50)) * time.Microsecond)
			}
			if err != nil && !errors.Is(err, storage.ErrDuplicateKey) && !errors.Is(err, storage.ErrKeyNotFound) {
				t.Fatal(err)
			}
		}
		if r.Intn(8) == 0 {
			tx.Rollback()
			continue
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		commits++
	}

	var paths []string
	var walk func(n *tprofiler.Node)
	walk = func(n *tprofiler.Node) {
		paths = append(paths, n.Path)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(prof.Tree())
	sort.Strings(paths)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(paths, "\n")))
	var cnt [8]byte
	for i, n := 0, uint64(prof.TxnCount()); i < 8; i++ {
		cnt[i] = byte(n >> (8 * i))
	}
	h.Write(cnt[:])
	n := ob.Variance.Snapshot().N
	if got := h.Sum64(); got != wantDigest || prof.TxnCount() != wantTxns || n != wantN {
		t.Errorf("digest %#x, profiler txns %d, variance N %d (%d commits); want %#x, %d, %d\npaths:\n%s",
			got, prof.TxnCount(), n, commits, wantDigest, wantTxns, wantN, strings.Join(paths, "\n"))
	}
}
