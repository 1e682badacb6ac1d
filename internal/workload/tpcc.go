package workload

import (
	"errors"
	"fmt"

	"vats/internal/engine"
	"vats/internal/storage"
	"vats/internal/xrand"
)

// TPCCConfig scales the TPC-C substitute. Zero values select defaults
// sized for single-machine experiments: the contention profile (hot
// warehouse and district rows, NURand item skew) matches the real
// benchmark even though row counts are scaled down.
type TPCCConfig struct {
	// Warehouses (default 4; the paper's contended runs behave like few
	// warehouses relative to client count).
	Warehouses int
	// DistrictsPerWarehouse (default 10, as in TPC-C).
	DistrictsPerWarehouse int
	// CustomersPerDistrict (default 30; TPC-C uses 3000, scaled 100×).
	CustomersPerDistrict int
	// Items (default 200; TPC-C uses 100k).
	Items int
}

func (c *TPCCConfig) defaults() {
	if c.Warehouses <= 0 {
		c.Warehouses = 4
	}
	if c.DistrictsPerWarehouse <= 0 {
		c.DistrictsPerWarehouse = 10
	}
	if c.CustomersPerDistrict <= 0 {
		c.CustomersPerDistrict = 30
	}
	if c.Items <= 0 {
		c.Items = 200
	}
}

// TPCC is the TPC-C workload: five transaction types at the standard
// 45/43/4/4/4 mix (NewOrder / Payment / OrderStatus / Delivery /
// StockLevel).
type TPCC struct {
	cfg TPCCConfig
}

// TPC-C transaction tags, used by Figure 8 and per-type reporting.
const (
	TagNewOrder    = "NewOrder"
	TagPayment     = "Payment"
	TagOrderStatus = "OrderStatus"
	TagDelivery    = "Delivery"
	TagStockLevel  = "StockLevel"
)

// NewTPCC builds the workload.
func NewTPCC(cfg TPCCConfig) *TPCC {
	cfg.defaults()
	return &TPCC{cfg: cfg}
}

// Name returns "tpcc".
func (w *TPCC) Name() string { return "tpcc" }

// Config returns the effective configuration.
func (w *TPCC) Config() TPCCConfig { return w.cfg }

// Key construction. Composite TPC-C keys are packed into uint64s; all
// keys are >= 1.
func tpccDistrictKey(wh, d int) uint64 { return uint64(wh)*100 + uint64(d) }
func tpccCustomerKey(wh, d, c int) uint64 {
	return (uint64(wh)*100+uint64(d))*1000 + uint64(c)
}
func tpccStockKey(wh, i int) uint64 { return uint64(wh)*100000 + uint64(i) }

// tpccNameBucket hashes a customer name into one of 10 buckets — the
// stand-in for TPC-C's last-name lookups. The secondary index key scopes
// the bucket to the customer's district.
func tpccNameBucket(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h % 10
}

func tpccNameIndexKey(districtKey, bucket uint64) uint64 {
	return districtKey*16 + bucket
}
func tpccOrderKey(wh, d int, o uint64) uint64 {
	return (uint64(wh)*100+uint64(d))*1_000_000 + o
}
func tpccOrderLineKey(orderKey uint64, idx int) uint64 {
	return orderKey*16 + uint64(idx) + 1
}

// tpccByName is the customer secondary index: customers by (district,
// name bucket) — the Payment-by-last-name access path (60% of Payments
// in the spec).
func tpccByName(pk uint64, img []byte) (uint64, bool) {
	r := storage.NewRowReader(img)
	r.Float64()
	r.Uint64()
	r.Uint64()
	name := r.String()
	if !r.Ok() {
		return 0, false
	}
	return tpccNameIndexKey(pk/1000, tpccNameBucket(name)), true
}

// The nine TPC-C tables, in creation order.
var tpccTableNames = [...]string{"warehouse", "district", "customer", "item", "stock",
	"orders", "orderline", "neworder", "history"}

// tpccSeed is one table's seed data: n rows, loaded batch rows per
// transaction. row(i) returns row i's warehouse (0 for the
// warehouse-independent item table), key and image.
type tpccSeed struct {
	table    string
	n, batch int
	row      func(i int) (wh int, key uint64, img []byte)
}

// seeds lists the seed-row generators of the five tables populated at
// load, in load order.
func (c TPCCConfig) seeds() []tpccSeed {
	nd := c.Warehouses * c.DistrictsPerWarehouse
	return []tpccSeed{
		{"warehouse", c.Warehouses, 50, func(i int) (int, uint64, []byte) {
			var b storage.RowBuilder
			return i + 1, uint64(i + 1), b.Float64(0).String(fmt.Sprintf("WH%03d", i+1)).Bytes()
		}},
		{"district", nd, 100, func(i int) (int, uint64, []byte) {
			wh := i/c.DistrictsPerWarehouse + 1
			d := i%c.DistrictsPerWarehouse + 1
			var b storage.RowBuilder
			// next_o_id starts at 1; ytd 0.
			return wh, tpccDistrictKey(wh, d), b.Uint64(1).Float64(0).Bytes()
		}},
		{"customer", nd * c.CustomersPerDistrict, 200, func(i int) (int, uint64, []byte) {
			per := c.CustomersPerDistrict
			di := i / per
			cust := i%per + 1
			wh := di/c.DistrictsPerWarehouse + 1
			d := di%c.DistrictsPerWarehouse + 1
			var b storage.RowBuilder
			// balance, payment count, delivery count, name.
			return wh, tpccCustomerKey(wh, d, cust),
				b.Float64(-10).Uint64(0).Uint64(0).String(fmt.Sprintf("Cust%05d", i)).Bytes()
		}},
		{"item", c.Items, 200, func(i int) (int, uint64, []byte) {
			var b storage.RowBuilder
			return 0, uint64(i + 1), b.Float64(float64(1 + i%100)).String(fmt.Sprintf("Item%04d", i+1)).Bytes()
		}},
		{"stock", c.Warehouses * c.Items, 200, func(i int) (int, uint64, []byte) {
			wh := i/c.Items + 1
			it := i%c.Items + 1
			var b storage.RowBuilder
			// quantity, ytd, order count.
			return wh, tpccStockKey(wh, it), b.Int64(50).Float64(0).Uint64(0).Bytes()
		}},
	}
}

// Load creates and populates the nine TPC-C tables.
func (w *TPCC) Load(db *engine.DB) error {
	for _, n := range tpccTableNames {
		if _, err := db.CreateTable(n); err != nil {
			return err
		}
	}
	customer, _ := db.Table("customer")
	if err := customer.CreateIndex(db.NewSession().Handle(), "byName", tpccByName); err != nil {
		return err
	}
	for _, s := range w.cfg.seeds() {
		t, _ := db.Table(s.table)
		if err := loadBatch(db, s.n, s.batch, func(tx *engine.Txn, i int) error {
			_, key, img := s.row(i)
			return tx.Insert(t, key, img)
		}); err != nil {
			return err
		}
	}
	return nil
}

// tpccTables holds one engine's nine TPC-C table handles; the
// transaction bodies are its methods, written once for both engines: T
// is *storage.Table on the single engine and *partition.Table on the
// partitioned one.
type tpccTables[T any] struct {
	warehouse, district, customer, item, stock T
	orders, orderline, neworder, history       T
}

// openTPCCTables looks the nine tables up by name.
func openTPCCTables[T any](lookup func(name string) (T, bool)) (tpccTables[T], error) {
	var ts tpccTables[T]
	for i, dst := range [...]*T{&ts.warehouse, &ts.district, &ts.customer, &ts.item, &ts.stock,
		&ts.orders, &ts.orderline, &ts.neworder, &ts.history} {
		t, ok := lookup(tpccTableNames[i])
		if !ok {
			return ts, fmt.Errorf("table %q not loaded", tpccTableNames[i])
		}
		*dst = t
	}
	return ts, nil
}

// tpccTx is the statement interface the TPC-C bodies run against.
// *engine.Txn satisfies it with T = *storage.Table and *partition.Txn
// with T = *partition.Table.
type tpccTx[T any] interface {
	Get(T, uint64) ([]byte, error)
	GetForUpdate(T, uint64) ([]byte, error)
	Insert(T, uint64, []byte) error
	Update(T, uint64, []byte) error
	Delete(T, uint64) error
	Scan(T, uint64, uint64, func(uint64, []byte) bool) error
	IndexScan(T, string, uint64, uint64, func(uint64, []byte) bool) error
}

// NewClient returns a TPC-C terminal.
func (w *TPCC) NewClient(db *engine.DB, seed int64) (Client, error) {
	ts, err := openTPCCTables(db.Table)
	if err != nil {
		return nil, fmt.Errorf("tpcc: %w", err)
	}
	return &tpccClient{
		tpccDraw:   tpccDraw{rng: xrand.New(seed), cfg: w.cfg},
		s:          db.NewSession(),
		tables:     ts,
		historyKey: uint64(seed)*1_000_000_000 + 1,
	}, nil
}

type tpccClient struct {
	tpccDraw
	s          *engine.Session
	tables     tpccTables[*storage.Table]
	historyKey uint64

	// fixedItems > 0 pins every New Order to that many lines, and
	// newOrderOnly drops the other four transaction types — the
	// uniform-workload control of Appendix C.1.
	fixedItems   int
	newOrderOnly bool
}

// Standard TPC-C mix.
var tpccWeights = []int{45, 43, 4, 4, 4}

// Run executes one randomly-chosen TPC-C transaction.
func (c *tpccClient) Run() (string, error) {
	if c.newOrderOnly {
		return TagNewOrder, c.newOrder()
	}
	switch pick(c.rng, tpccWeights) {
	case 0:
		return TagNewOrder, c.newOrder()
	case 1:
		return TagPayment, c.payment()
	case 2:
		return TagOrderStatus, c.orderStatus()
	case 3:
		return TagDelivery, c.delivery()
	default:
		return TagStockLevel, c.stockLevel()
	}
}

// tpccDraw draws a terminal's transaction inputs from its RNG.
type tpccDraw struct {
	rng *xrand.Source
	cfg TPCCConfig
}

func (r tpccDraw) randWarehouse() int { return r.rng.UniformInt(1, r.cfg.Warehouses) }
func (r tpccDraw) randDistrict() int {
	return r.rng.UniformInt(1, r.cfg.DistrictsPerWarehouse)
}
func (r tpccDraw) randCustomer() int {
	return r.rng.NURand(255, 1, r.cfg.CustomersPerDistrict)
}
func (r tpccDraw) randItem() int { return r.rng.NURand(1023, 1, r.cfg.Items) }

// randRemoteWarehouse draws a warehouse other than wh.
func (r tpccDraw) randRemoteWarehouse(wh int) int {
	other := wh
	for other == wh {
		other = r.randWarehouse()
	}
	return other
}

// UniformTPCC is the Appendix C.1 control workload: only New-Order
// transactions, each with exactly FixedItems order lines, so every
// transaction requests the same amount of work.
type UniformTPCC struct {
	*TPCC
	// FixedItems is the order-line count per transaction (default 10).
	FixedItems int
}

// NewUniformTPCC builds the uniform workload.
func NewUniformTPCC(cfg TPCCConfig, fixedItems int) *UniformTPCC {
	if fixedItems <= 0 {
		fixedItems = 10
	}
	return &UniformTPCC{TPCC: NewTPCC(cfg), FixedItems: fixedItems}
}

// Name returns "tpcc-uniform".
func (w *UniformTPCC) Name() string { return "tpcc-uniform" }

// NewClient returns a New-Order-only terminal with a fixed line count.
func (w *UniformTPCC) NewClient(db *engine.DB, seed int64) (Client, error) {
	c, err := w.TPCC.NewClient(db, seed)
	if err != nil {
		return nil, err
	}
	tc := c.(*tpccClient)
	tc.newOrderOnly = true
	tc.fixedItems = w.FixedItems
	return tc, nil
}

// run executes body as one transaction tagged tag, retrying deadlock
// and timeout victims.
func (c *tpccClient) run(tag string, body func(tx *engine.Txn) error) error {
	return c.s.RunTxn(maxRetries, func(tx *engine.Txn) error {
		tx.SetTag(tag)
		return body(tx)
	})
}

func (c *tpccClient) newOrder() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	cust := c.randCustomer()
	nItems := c.fixedItems
	if nItems <= 0 {
		nItems = c.rng.UniformInt(5, 15)
	}
	lines := make([]tpccLine, nItems)
	for i := range lines {
		supply := wh
		if c.cfg.Warehouses > 1 && c.rng.Intn(100) == 0 {
			supply = c.randRemoteWarehouse(wh)
		}
		lines[i] = tpccLine{item: c.randItem(), supplyWH: supply, qty: c.rng.UniformInt(1, 10)}
	}
	return c.run(TagNewOrder, func(tx *engine.Txn) error {
		return c.tables.newOrder(tx, wh, d, cust, lines)
	})
}

func (c *tpccClient) payment() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	cust := c.randCustomer()
	// 60% of Payments select the customer by last name through the
	// secondary index, 40% by id (the spec's split).
	byName := c.rng.Intn(100) < 60
	bucket := uint64(c.rng.Intn(10))
	amount := float64(c.rng.UniformInt(1, 5000))
	return c.run(TagPayment, func(tx *engine.Txn) error {
		return c.tables.payment(tx, wh, d, wh, d, cust, byName, bucket, amount, func() uint64 {
			c.historyKey++
			return c.historyKey
		})
	})
}

func (c *tpccClient) orderStatus() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	cust := c.randCustomer()
	return c.run(TagOrderStatus, func(tx *engine.Txn) error {
		return c.tables.orderStatus(tx, wh, d, cust)
	})
}

func (c *tpccClient) delivery() error {
	wh := c.randWarehouse()
	return c.run(TagDelivery, func(tx *engine.Txn) error {
		return c.tables.delivery(tx, wh, c.cfg.DistrictsPerWarehouse, func() uint64 {
			return uint64(c.rng.UniformInt(1, 10))
		})
	})
}

func (c *tpccClient) stockLevel() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	threshold := int64(c.rng.UniformInt(10, 20))
	return c.run(TagStockLevel, func(tx *engine.Txn) error {
		return c.tables.stockLevel(tx, wh, d, threshold)
	})
}

// tpccLine is one New Order line: an item, its supplying warehouse and
// the quantity ordered.
type tpccLine struct{ item, supplyWH, qty int }

// newOrder places customer cust's order of lines in district (wh, d).
func (ts *tpccTables[T]) newOrder(tx tpccTx[T], wh, d, cust int, lines []tpccLine) error {
	// The district row is TPC-C's hot spot: its next_o_id is
	// incremented under an exclusive lock. (The w_tax read is a
	// non-locking consistent read in InnoDB, so it takes no lock
	// here either.)
	dkey := tpccDistrictKey(wh, d)
	drow, err := tx.GetForUpdate(ts.district, dkey)
	if err != nil {
		return err
	}
	dr := storage.NewRowReader(drow)
	nextO := dr.Uint64()
	ytd := dr.Float64()
	var db2 storage.RowBuilder
	if err := tx.Update(ts.district, dkey, db2.Uint64(nextO+1).Float64(ytd).Bytes()); err != nil {
		return err
	}
	if _, err := tx.Get(ts.customer, tpccCustomerKey(wh, d, cust)); err != nil {
		return err
	}
	okey := tpccOrderKey(wh, d, nextO)
	total := 0.0
	for i, ln := range lines {
		irow, err := tx.Get(ts.item, uint64(ln.item))
		if err != nil {
			return err
		}
		price := storage.NewRowReader(irow).Float64()
		skey := tpccStockKey(ln.supplyWH, ln.item)
		srow, err := tx.GetForUpdate(ts.stock, skey)
		if err != nil {
			return err
		}
		sr := storage.NewRowReader(srow)
		qty := sr.Int64()
		sytd := sr.Float64()
		scnt := sr.Uint64()
		newQty := qty - int64(ln.qty)
		if newQty < 10 {
			newQty += 91
		}
		var sb storage.RowBuilder
		if err := tx.Update(ts.stock, skey, sb.Int64(newQty).Float64(sytd+float64(ln.qty)).Uint64(scnt+1).Bytes()); err != nil {
			return err
		}
		total += price * float64(ln.qty)
		var ob storage.RowBuilder
		if err := tx.Insert(ts.orderline, tpccOrderLineKey(okey, i),
			ob.Uint64(uint64(ln.item)).Int64(int64(ln.qty)).Float64(price).Bytes()); err != nil {
			return err
		}
	}
	var ob storage.RowBuilder
	if err := tx.Insert(ts.orders, okey,
		ob.Uint64(uint64(cust)).Uint64(uint64(len(lines))).Uint64(0).Float64(total).Bytes()); err != nil {
		return err
	}
	var nb storage.RowBuilder
	return tx.Insert(ts.neworder, okey, nb.Uint64(1).Bytes())
}

// payment pays amount into warehouse wh and its district d on behalf
// of customer cust of district (cwh, cd), found through the name
// index's bucket when byName. historyKey is called once per attempt,
// after the customer update, for the history row's key.
func (ts *tpccTables[T]) payment(tx tpccTx[T], wh, d, cwh, cd, cust int, byName bool, bucket uint64, amount float64, historyKey func() uint64) error {
	if byName {
		// Collect the bucket's customers and take the middle one,
		// as the spec prescribes for name lookups.
		ikey := tpccNameIndexKey(tpccDistrictKey(cwh, cd), bucket)
		var pks []uint64
		if err := tx.IndexScan(ts.customer, "byName", ikey, ikey,
			func(pk uint64, _ []byte) bool {
				pks = append(pks, pk)
				return true
			}); err != nil {
			return err
		}
		if len(pks) > 0 {
			cust = int(pks[len(pks)/2] % 1000)
		}
	}
	// Warehouse YTD: the single hottest row in TPC-C.
	wrow, err := tx.GetForUpdate(ts.warehouse, uint64(wh))
	if err != nil {
		return err
	}
	wr := storage.NewRowReader(wrow)
	wytd := wr.Float64()
	wname := wr.String()
	var wb storage.RowBuilder
	if err := tx.Update(ts.warehouse, uint64(wh), wb.Float64(wytd+amount).String(wname).Bytes()); err != nil {
		return err
	}
	dkey := tpccDistrictKey(wh, d)
	drow, err := tx.GetForUpdate(ts.district, dkey)
	if err != nil {
		return err
	}
	dr := storage.NewRowReader(drow)
	nextO := dr.Uint64()
	dytd := dr.Float64()
	var dbld storage.RowBuilder
	if err := tx.Update(ts.district, dkey, dbld.Uint64(nextO).Float64(dytd+amount).Bytes()); err != nil {
		return err
	}
	ckey := tpccCustomerKey(cwh, cd, cust)
	crow, err := tx.GetForUpdate(ts.customer, ckey)
	if err != nil {
		return err
	}
	cr := storage.NewRowReader(crow)
	bal := cr.Float64()
	pays := cr.Uint64()
	dels := cr.Uint64()
	cname := cr.String()
	var cb storage.RowBuilder
	if err := tx.Update(ts.customer, ckey,
		cb.Float64(bal-amount).Uint64(pays+1).Uint64(dels).String(cname).Bytes()); err != nil {
		return err
	}
	var hb storage.RowBuilder
	return tx.Insert(ts.history, historyKey(), hb.Uint64(ckey).Float64(amount).Bytes())
}

// orderStatus reads customer cust and district (wh, d)'s most recent
// orders with their lines.
func (ts *tpccTables[T]) orderStatus(tx tpccTx[T], wh, d, cust int) error {
	if _, err := tx.Get(ts.customer, tpccCustomerKey(wh, d, cust)); err != nil {
		return err
	}
	drow, err := tx.Get(ts.district, tpccDistrictKey(wh, d))
	if err != nil {
		return err
	}
	nextO := storage.NewRowReader(drow).Uint64()
	if nextO <= 1 {
		return nil // no orders yet
	}
	lo := uint64(1)
	if nextO > 5 {
		lo = nextO - 5
	}
	return ts.scanOrderLines(tx, wh, d, lo, nextO-1, func(uint64, []byte) bool { return true })
}

// delivery delivers the oldest undelivered order of each of warehouse
// wh's districts. carrier is called once per delivered order.
func (ts *tpccTables[T]) delivery(tx tpccTx[T], wh, districts int, carrier func() uint64) error {
	for d := 1; d <= districts; d++ {
		// Oldest undelivered order in this district.
		var oldest uint64
		base := tpccOrderKey(wh, d, 0)
		err := tx.Scan(ts.neworder, base+1, base+999_999, func(okey uint64, _ []byte) bool {
			oldest = okey
			return false // first = oldest (ascending scan)
		})
		if err != nil {
			return err
		}
		if oldest == 0 {
			continue
		}
		if err := tx.Delete(ts.neworder, oldest); err != nil {
			if errors.Is(err, storage.ErrKeyNotFound) {
				continue // another delivery got it first
			}
			return err
		}
		orow, err := tx.GetForUpdate(ts.orders, oldest)
		if err != nil {
			return err
		}
		or := storage.NewRowReader(orow)
		custID := or.Uint64()
		olCount := or.Uint64()
		or.Uint64() // carrier
		total := or.Float64()
		var ob storage.RowBuilder
		if err := tx.Update(ts.orders, oldest,
			ob.Uint64(custID).Uint64(olCount).Uint64(carrier()).Float64(total).Bytes()); err != nil {
			return err
		}
		ckey := tpccCustomerKey(wh, d, int(custID))
		crow, err := tx.GetForUpdate(ts.customer, ckey)
		if err != nil {
			return err
		}
		cr := storage.NewRowReader(crow)
		bal := cr.Float64()
		pays := cr.Uint64()
		dels := cr.Uint64()
		cname := cr.String()
		var cb storage.RowBuilder
		if err := tx.Update(ts.customer, ckey,
			cb.Float64(bal+total).Uint64(pays).Uint64(dels+1).String(cname).Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// stockLevel counts the items of district (wh, d)'s last orders whose
// stock is below threshold.
func (ts *tpccTables[T]) stockLevel(tx tpccTx[T], wh, d int, threshold int64) error {
	drow, err := tx.Get(ts.district, tpccDistrictKey(wh, d))
	if err != nil {
		return err
	}
	nextO := storage.NewRowReader(drow).Uint64()
	if nextO <= 1 {
		return nil
	}
	lo := uint64(1)
	if nextO > 10 {
		lo = nextO - 10
	}
	seen := map[uint64]bool{}
	if err := ts.scanOrderLines(tx, wh, d, lo, nextO-1, func(_ uint64, row []byte) bool {
		seen[storage.NewRowReader(row).Uint64()] = true
		return true
	}); err != nil {
		return err
	}
	low := 0
	for it := range seen {
		srow, err := tx.Get(ts.stock, tpccStockKey(wh, int(it)))
		if err != nil {
			return err
		}
		if storage.NewRowReader(srow).Int64() < threshold {
			low++
		}
	}
	return nil
}

// scanOrderLines calls fn for every line of district (wh, d)'s orders
// lo..hi. An order-line scan error stops the order scan and is
// returned.
func (ts *tpccTables[T]) scanOrderLines(tx tpccTx[T], wh, d int, lo, hi uint64, fn func(uint64, []byte) bool) error {
	var lineErr error
	err := tx.Scan(ts.orders, tpccOrderKey(wh, d, lo), tpccOrderKey(wh, d, hi),
		func(okey uint64, _ []byte) bool {
			lineErr = tx.Scan(ts.orderline, tpccOrderLineKey(okey, 0), tpccOrderLineKey(okey, 15), fn)
			return lineErr == nil
		})
	if err != nil {
		return err
	}
	return lineErr
}
