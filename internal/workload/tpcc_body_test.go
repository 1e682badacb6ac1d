package workload

import (
	"errors"
	"testing"

	"vats/internal/storage"
)

// failingLines is a tpccTx over table names: every Get returns a
// district row whose next order id is 5, every orders scan yields each
// key in range, and every orderline scan fails with err.
type failingLines struct{ err error }

func (failingLines) Get(string, uint64) ([]byte, error) {
	var b storage.RowBuilder
	return b.Uint64(5).Float64(0).Bytes(), nil
}
func (f failingLines) GetForUpdate(t string, k uint64) ([]byte, error) { return f.Get(t, k) }
func (failingLines) Insert(string, uint64, []byte) error               { return nil }
func (failingLines) Update(string, uint64, []byte) error               { return nil }
func (failingLines) Delete(string, uint64) error                       { return nil }
func (f failingLines) Scan(t string, lo, hi uint64, fn func(uint64, []byte) bool) error {
	if t == "orderline" {
		return f.err
	}
	for k := lo; k <= hi && fn(k, nil); k++ {
	}
	return nil
}
func (failingLines) IndexScan(string, string, uint64, uint64, func(uint64, []byte) bool) error {
	return nil
}

// TestTPCCOrderLineScanErrorReturned: a failing order-line scan inside
// OrderStatus or StockLevel fails the transaction instead of letting it
// commit as a success.
func TestTPCCOrderLineScanErrorReturned(t *testing.T) {
	ts, err := openTPCCTables(func(name string) (string, bool) { return name, true })
	if err != nil {
		t.Fatal(err)
	}
	want := errors.New("order-line scan failed")
	tx := failingLines{want}
	if err := ts.orderStatus(tx, 1, 1, 1); !errors.Is(err, want) {
		t.Errorf("orderStatus = %v, want %v", err, want)
	}
	if err := ts.stockLevel(tx, 1, 1, 15); !errors.Is(err, want) {
		t.Errorf("stockLevel = %v, want %v", err, want)
	}
}
