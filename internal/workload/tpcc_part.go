package workload

import (
	"fmt"

	"vats/internal/engine"
	"vats/internal/partition"
	"vats/internal/xrand"
)

// PartitionedTPCC drives the TPC-C mix against a partitioned engine,
// hash-partitioned by warehouse: every TPC-C key packs its warehouse in
// a fixed prefix, so the partition-key extractors are pure arithmetic
// on the primary key. The item table is replicated (H-Store style): it
// is read-only after load and warehouse-independent, so every partition
// holds a full copy and reads it locally. The transaction bodies are the
// single engine's; a terminal adds only each transaction's declared
// partition.Ref set.
type PartitionedTPCC struct {
	cfg TPCCConfig
	// CrossWarehouseP, in [0, 1], sets the multi-partition ratio: it is
	// the probability that a Payment pays for a customer of a REMOTE
	// warehouse (the spec's 15% remote-customer rule) and that a
	// NewOrder sources one line from a remote supply warehouse (the
	// spec's 1%-per-line rule, folded to a per-transaction draw).
	CrossWarehouseP float64
}

// NewPartitionedTPCC builds the partitioned workload.
func NewPartitionedTPCC(cfg TPCCConfig, crossWarehouseP float64) *PartitionedTPCC {
	cfg.defaults()
	return &PartitionedTPCC{cfg: cfg, CrossWarehouseP: crossWarehouseP}
}

// Name returns "tpcc-part".
func (w *PartitionedTPCC) Name() string { return "tpcc-part" }

// Config returns the effective configuration.
func (w *PartitionedTPCC) Config() TPCCConfig { return w.cfg }

// tpccPartHistoryKey packs a partitionable history key: warehouse in
// the top bits so the extractor is key>>40, then a per-client tag and a
// counter for uniqueness.
func tpccPartHistoryKey(wh int, clientTag, counter uint64) uint64 {
	return uint64(wh)<<40 | (clientTag%(1<<20))<<20 | counter%(1<<20)
}

// tpccKeyOf maps each partitioned table to its partition-key
// extractor, which yields the key's warehouse. The item table has none,
// so it is replicated.
var tpccKeyOf = map[string]func(k uint64) uint64{
	"warehouse": func(k uint64) uint64 { return k },
	"district":  func(k uint64) uint64 { return k / 100 },
	"customer":  func(k uint64) uint64 { return k / 100_000 },
	"stock":     func(k uint64) uint64 { return k / 100_000 },
	"orders":    func(k uint64) uint64 { return k / 100_000_000 },
	"orderline": func(k uint64) uint64 { return k / 16 / 100_000_000 },
	"neworder":  func(k uint64) uint64 { return k / 100_000_000 },
	"history":   func(k uint64) uint64 { return k >> 40 },
}

// LoadPartitioned creates the nine TPC-C tables on every partition
// (warehouse-extractor per table) and loads the same seed data as the
// single-engine loader, routed by warehouse. Tables are created in a
// fixed order so spaces align across opens (recovery requirement).
func (w *PartitionedTPCC) LoadPartitioned(pdb *partition.DB) error {
	for _, n := range tpccTableNames {
		if _, err := pdb.CreateTable(n, tpccKeyOf[n]); err != nil {
			return err
		}
	}
	// Same byName index as the single-engine loader, plus the index-key →
	// warehouse extractor the router needs to classify index scan ranges.
	customer, _ := pdb.Table("customer")
	if err := customer.CreateIndex("byName", tpccByName, func(ikey uint64) uint64 { return ikey / 16 / 100 }); err != nil {
		return err
	}
	npart := pdb.Partitions()
	for _, s := range w.cfg.seeds() {
		t, _ := pdb.Table(s.table)
		// Each row goes to its warehouse's partition; the replicated item
		// table is loaded whole into every partition.
		rows := make([][]int, npart)
		for i := 0; i < s.n; i++ {
			wh, _, _ := s.row(i)
			for p := range rows {
				if t.Replicated() || p == wh%npart {
					rows[p] = append(rows[p], i)
				}
			}
		}
		for p, rs := range rows {
			if err := loadBatch(pdb.Partition(p), len(rs), s.batch, func(tx *engine.Txn, j int) error {
				_, key, img := s.row(rs[j])
				return tx.Insert(t.Shard(p), key, img)
			}); err != nil {
				return fmt.Errorf("tpcc-part load %s on partition %d: %w", s.table, p, err)
			}
		}
	}
	return nil
}

// NewPartitionedClient returns a TPC-C terminal driving pdb.
func (w *PartitionedTPCC) NewPartitionedClient(pdb *partition.DB, seed int64) (Client, error) {
	ts, err := openTPCCTables(pdb.Table)
	if err != nil {
		return nil, fmt.Errorf("tpcc-part: %w", err)
	}
	return &tpccPartClient{
		tpccDraw:  tpccDraw{rng: xrand.New(seed), cfg: w.cfg},
		crossP:    w.CrossWarehouseP,
		pdb:       pdb,
		tables:    ts,
		clientTag: uint64(seed),
	}, nil
}

type tpccPartClient struct {
	tpccDraw
	crossP float64
	pdb    *partition.DB
	tables tpccTables[*partition.Table]

	clientTag  uint64
	historyCnt uint64
}

// Run executes one randomly-chosen TPC-C transaction.
func (c *tpccPartClient) Run() (string, error) {
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

// chance draws true with probability p.
func (c *tpccPartClient) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(c.rng.Intn(1_000_000)) < p*1_000_000
}

func (c *tpccPartClient) newOrder() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	cust := c.randCustomer()
	nItems := c.rng.UniformInt(5, 15)
	lines := make([]tpccLine, nItems)
	remote := c.cfg.Warehouses > 1 && c.chance(c.crossP)
	for i := range lines {
		supply := wh
		if remote && i == 0 {
			supply = c.randRemoteWarehouse(wh)
		}
		lines[i] = tpccLine{item: c.randItem(), supplyWH: supply, qty: c.rng.UniformInt(1, 10)}
	}
	// Declared key set: the district row pins the home warehouse; each
	// stock row pins its supply warehouse (remote lines add a
	// participant). Orders/orderlines/neworder rows derive from the home
	// district, so the district ref covers them.
	refs := make([]partition.Ref, 0, 1+len(lines))
	refs = append(refs, partition.Ref{Table: c.tables.district, Key: tpccDistrictKey(wh, d)})
	for _, ln := range lines {
		refs = append(refs, partition.Ref{Table: c.tables.stock, Key: tpccStockKey(ln.supplyWH, ln.item)})
	}
	return c.pdb.Run(TagNewOrder, refs, func(tx *partition.Txn) error {
		return c.tables.newOrder(tx, wh, d, cust, lines)
	})
}

func (c *tpccPartClient) payment() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	// Remote customer with probability crossP: the paying customer
	// belongs to another warehouse, making the transaction
	// cross-partition (the home warehouse/district rows on one
	// partition, the customer row and name index on another).
	cwh, cd := wh, d
	if c.cfg.Warehouses > 1 && c.chance(c.crossP) {
		cwh = c.randRemoteWarehouse(wh)
		cd = c.randDistrict()
	}
	cust := c.randCustomer()
	byName := c.rng.Intn(100) < 60
	bucket := uint64(c.rng.Intn(10))
	amount := float64(c.rng.UniformInt(1, 5000))
	c.historyCnt++
	hkey := tpccPartHistoryKey(wh, c.clientTag, c.historyCnt)
	refs := []partition.Ref{
		{Table: c.tables.warehouse, Key: uint64(wh)},
		{Table: c.tables.customer, Key: tpccCustomerKey(cwh, cd, cust)},
	}
	return c.pdb.Run(TagPayment, refs, func(tx *partition.Txn) error {
		return c.tables.payment(tx, wh, d, cwh, cd, cust, byName, bucket, amount,
			func() uint64 { return hkey })
	})
}

func (c *tpccPartClient) orderStatus() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	cust := c.randCustomer()
	refs := []partition.Ref{{Table: c.tables.district, Key: tpccDistrictKey(wh, d)}}
	return c.pdb.Run(TagOrderStatus, refs, func(tx *partition.Txn) error {
		return c.tables.orderStatus(tx, wh, d, cust)
	})
}

func (c *tpccPartClient) delivery() error {
	wh := c.randWarehouse()
	carrier := uint64(c.rng.UniformInt(1, 10))
	refs := []partition.Ref{{Table: c.tables.warehouse, Key: uint64(wh)}}
	return c.pdb.Run(TagDelivery, refs, func(tx *partition.Txn) error {
		return c.tables.delivery(tx, wh, c.cfg.DistrictsPerWarehouse, func() uint64 { return carrier })
	})
}

func (c *tpccPartClient) stockLevel() error {
	wh := c.randWarehouse()
	d := c.randDistrict()
	threshold := int64(c.rng.UniformInt(10, 20))
	refs := []partition.Ref{{Table: c.tables.district, Key: tpccDistrictKey(wh, d)}}
	return c.pdb.Run(TagStockLevel, refs, func(tx *partition.Txn) error {
		return c.tables.stockLevel(tx, wh, d, threshold)
	})
}
