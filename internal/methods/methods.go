// Package methods is the catalog of every access method in the repository,
// constructed with standard configurations and wrapped in core.Instrument so
// their RUM overheads are measured identically. The experiment harness
// (internal/bench), the binaries (cmd/...), and the examples all build
// structures through this package.
package methods

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/bitmap"
	"repro/internal/btree"
	"repro/internal/column"
	"repro/internal/core"
	"repro/internal/cracking"
	"repro/internal/faults"
	"repro/internal/hashindex"
	"repro/internal/lsm"
	"repro/internal/model"
	"repro/internal/pbt"
	"repro/internal/rum"
	"repro/internal/skiplist"
	"repro/internal/storage"
	"repro/internal/trie"
	"repro/internal/wal"
	"repro/internal/zonemap"
)

// Options configures the simulated substrate under page-based structures.
type Options struct {
	// PageSize in bytes (default 4096).
	PageSize int
	// PoolPages is the buffer pool capacity — the MEM parameter of Table 1
	// (default 64).
	PoolPages int
	// Medium is the simulated storage technology (the zero value is RAM).
	Medium storage.Medium
	// Hook, when non-nil, observes every page event of every device and
	// buffer pool built through this Options (e.g. an *obs.Observer). The
	// default nil keeps the storage hot path untraced.
	Hook storage.Hook
	// Faults, when active, arms a seed-driven fault injector
	// (internal/faults) on every device built through this Options. Salt
	// the plan per structure (faults.Plan.Salted) when several share one
	// Options, or they will draw identical fault streams.
	Faults faults.Plan
	// Versions, when positive, turns on MVCC snapshot retention for the
	// catalog's snapshot-capable structures (btree, lsm-level, lsm-tier):
	// each keeps up to Versions published versions readable. The default 0
	// builds them without snapshot support, exactly as before.
	Versions int
	// WAL, when true, builds the catalog's loggable structures (btree,
	// lsm-level, lsm-tier) behind a write-ahead log (internal/wal): every
	// mutation is framed into the log before it is acknowledged, upgrading
	// the durability contract to faults.DurableToCommit. WAL and Versions
	// are mutually exclusive — the log owns the checkpoint/epoch machinery
	// the MVCC read path would need to share.
	WAL bool
	// CommitBatch is the group-commit knob when WAL is on: the number of
	// logged records one commit (one simulated sync) amortizes over.
	// 0 defaults to 1 — sync every mutation.
	CommitBatch int
}

func (o *Options) defaults() {
	if o.PageSize <= 0 {
		o.PageSize = 4096
	}
	if o.PoolPages <= 0 {
		o.PoolPages = 64
	}
}

// Model returns the substrate as the analytic model (internal/model) prices
// it, holding n records: the sizes structures built through o really get.
func (o Options) Model(n int) model.Params {
	o.defaults()
	return model.Params{
		N: float64(n), PageSize: o.PageSize, RecordSize: core.RecordSize, LineSize: rum.LineSize,
		PoolPages: o.PoolPages, Medium: o.Medium.Model(),
	}
}

// NewPool builds a device + buffer pool reporting to meter.
func NewPool(opt Options, meter *rum.Meter) *storage.BufferPool {
	opt.defaults()
	dev := storage.NewDevice(opt.PageSize, opt.Medium, meter)
	pool := storage.NewBufferPool(dev, opt.PoolPages)
	if opt.Hook != nil {
		dev.SetHook(opt.Hook)
		pool.SetHook(opt.Hook)
	}
	if opt.Faults.Active() {
		dev.SetInjector(faults.New(opt.Faults))
	}
	return pool
}

// NewBTree builds an instrumented B+-tree.
func NewBTree(opt Options, cfg btree.Config) *core.Instrumented {
	t, err := btree.New(NewPool(opt, nil), cfg)
	if err != nil {
		panic(fmt.Sprintf("methods: btree: %v", err))
	}
	return core.Instrument(t)
}

// NewHash builds an instrumented hash index.
func NewHash(opt Options, cfg hashindex.Config) *core.Instrumented {
	x, err := hashindex.New(NewPool(opt, nil), cfg)
	if err != nil {
		panic(fmt.Sprintf("methods: hash: %v", err))
	}
	return core.Instrument(x)
}

// NewLSM builds an instrumented LSM tree.
func NewLSM(opt Options, cfg lsm.Config) *core.Instrumented {
	return core.Instrument(lsm.New(NewPool(opt, nil), cfg))
}

// walConfig is the log tuning an Options selects: the caller's group-commit
// batch, with checkpoints bounding the overlay at a few thousand records so
// long runs neither hoard memory nor grow an unbounded replay tail.
func (o Options) walConfig() wal.Config {
	return wal.Config{CommitBatch: o.CommitBatch, CheckpointEvery: 4096}
}

// NewWALBTree builds an instrumented write-ahead-logged B+-tree
// (faults.DurableToCommit).
func NewWALBTree(opt Options, cfg btree.Config) *core.Instrumented {
	t, err := wal.NewBTree(NewPool(opt, nil), cfg, opt.walConfig())
	if err != nil {
		panic(fmt.Sprintf("methods: wal btree: %v", err))
	}
	return core.Instrument(t)
}

// NewWALLSM builds an instrumented write-ahead-logged LSM tree
// (faults.DurableToCommit). The log forces the manifest on — its checkpoint
// barrier is the manifest commit.
func NewWALLSM(opt Options, cfg lsm.Config) *core.Instrumented {
	t, err := wal.NewLSM(NewPool(opt, nil), cfg, opt.walConfig())
	if err != nil {
		panic(fmt.Sprintf("methods: wal lsm: %v", err))
	}
	return core.Instrument(t)
}

// NewSkiplist builds an instrumented skip list.
func NewSkiplist() *core.Instrumented {
	return core.Instrument(skiplist.New(1, 0.5, nil))
}

// NewTrie builds an instrumented radix trie.
func NewTrie(stride uint) *core.Instrumented {
	t, err := trie.New(stride, nil)
	if err != nil {
		panic(fmt.Sprintf("methods: trie: %v", err))
	}
	return core.Instrument(t)
}

// NewZoneMap builds an instrumented zone-mapped store.
func NewZoneMap(partition int) *core.Instrumented {
	return core.Instrument(zonemap.New(partition, nil))
}

// NewSortedColumn builds an instrumented sorted column.
func NewSortedColumn() *core.Instrumented {
	return core.Instrument(column.NewSorted(nil))
}

// NewUnsortedColumn builds an instrumented unsorted column.
func NewUnsortedColumn() *core.Instrumented {
	return core.Instrument(column.NewUnsorted(nil))
}

// NewCracking builds an instrumented cracked store.
func NewCracking(mergeThreshold int) *core.Instrumented {
	return core.Instrument(cracking.New(mergeThreshold, nil))
}

// NewPBT builds an instrumented partitioned B-tree.
func NewPBT(opt Options, cfg pbt.Config) *core.Instrumented {
	t, err := pbt.New(NewPool(opt, nil), cfg)
	if err != nil {
		panic(fmt.Sprintf("methods: pbt: %v", err))
	}
	return core.Instrument(t)
}

// NewApprox builds an instrumented approximate (quotient-filter) index.
func NewApprox(cfg approx.Config) *core.Instrumented {
	return core.Instrument(approx.New(cfg, nil))
}

// NewBitmap builds an instrumented bitmap index store.
func NewBitmap(cfg bitmap.Config) *core.Instrumented {
	return core.Instrument(bitmap.New(cfg, nil))
}

// Spec names a catalog entry and builds a fresh instance of it.
type Spec struct {
	Name   string
	Corner rum.Corner // the Figure-1 region the structure is expected in
	New    func() *core.Instrumented
}

// Catalog returns every access method in its standard configuration — the
// cast of Figure 1.
func Catalog(opt Options) []Spec {
	opt.defaults()
	if opt.WAL && opt.Versions > 0 {
		panic("methods: Options.WAL and Options.Versions are mutually exclusive")
	}
	return []Spec{
		{Name: "btree", Corner: rum.ReadOptimized, New: func() *core.Instrumented {
			if opt.WAL {
				return NewWALBTree(opt, btree.Config{})
			}
			return NewBTree(opt, btree.Config{Versions: opt.Versions})
		}},
		{Name: "hash", Corner: rum.ReadOptimized, New: func() *core.Instrumented {
			return NewHash(opt, hashindex.Config{})
		}},
		{Name: "skiplist", Corner: rum.ReadOptimized, New: func() *core.Instrumented {
			return NewSkiplist()
		}},
		{Name: "trie", Corner: rum.ReadOptimized, New: func() *core.Instrumented {
			return NewTrie(8)
		}},
		// The catalog LSMs carry no Bloom filters: Figure 1 plots the plain
		// LSM-tree; per-run filters are the Section-5 enhancement whose RUM
		// effect Figure 3 sweeps explicitly.
		{Name: "lsm-level", Corner: rum.WriteOptimized, New: func() *core.Instrumented {
			if opt.WAL {
				return NewWALLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 10})
			}
			return NewLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Versions: opt.Versions})
		}},
		{Name: "lsm-tier", Corner: rum.WriteOptimized, New: func() *core.Instrumented {
			if opt.WAL {
				return NewWALLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Tiering: true})
			}
			return NewLSM(opt, lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Tiering: true, Versions: opt.Versions})
		}},
		{Name: "zonemap", Corner: rum.SpaceOptimized, New: func() *core.Instrumented {
			return NewZoneMap(256)
		}},
		{Name: "bitmap", Corner: rum.SpaceOptimized, New: func() *core.Instrumented {
			return NewBitmap(bitmap.Config{Cardinality: 16, MergeThreshold: 64})
		}},
		{Name: "sorted-column", Corner: rum.SpaceOptimized, New: func() *core.Instrumented {
			return NewSortedColumn()
		}},
		{Name: "unsorted-column", Corner: rum.SpaceOptimized, New: func() *core.Instrumented {
			return NewUnsortedColumn()
		}},
		{Name: "cracking", Corner: rum.Balanced, New: func() *core.Instrumented {
			return NewCracking(1 << 16)
		}},
	}
}

// Lookup returns the catalog entry with the given name.
func Lookup(opt Options, name string) (Spec, error) {
	for _, s := range Catalog(opt) {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("methods: unknown access method %q", name)
}

// Flavors returns the shape set for the morphing engine (Morphing): a
// read-optimized B+-tree and a write-optimized LSM, each built from the
// configuration the analytic model prices it as. (No zone map any more: on no
// substrate Options can build does model or profiler seat it below the LSM.)
func Flavors(opt Options) []Flavor {
	bt, _ := model.Lookup("btree")
	ls := model.Config{Method: "lsm-level", SizeRatio: 8, BloomBits: 10, Buffer: 1024}
	return []Flavor{
		{Name: "btree", Config: bt, New: func(meter *rum.Meter) core.AccessMethod {
			t, err := btree.New(NewPool(opt, meter), btree.Config{})
			if err != nil {
				panic(err)
			}
			return t
		}},
		{Name: "lsm", Config: ls, New: func(meter *rum.Meter) core.AccessMethod {
			return lsm.New(NewPool(opt, meter), lsm.Config{
				MemtableRecords: int(ls.Buffer), SizeRatio: int(ls.SizeRatio), BloomBitsPerKey: ls.BloomBits,
			})
		}},
	}
}
