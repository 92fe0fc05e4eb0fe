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

// Spec is one catalog row: how the method opens over a buffer pool, how it
// recovers from a crashed device image (Reopen, nil where it has none), the
// durability contract it keeps (the faults.Subject the crash checker takes
// as is), and the Figure-1 region it is expected in.
type Spec struct {
	faults.Subject
	Corner rum.Corner // the Figure-1 region the structure is expected in
	opt    Options
}

// New builds a fresh instrumented instance on a fresh pool of the catalog's
// Options. The in-memory methods ignore the pool.
func (s Spec) New() *core.Instrumented { return core.Instrument(s.open(nil)) }

// open builds a fresh instance on a fresh pool reporting to meter.
func (s Spec) open(meter *rum.Meter) core.AccessMethod {
	am, err := s.Open(NewPool(s.opt, meter))
	if err != nil {
		panic(fmt.Sprintf("methods: %s: %v", s.Name, err))
	}
	return am
}

// opener builds an access method over a pool: a row's Open or Reopen.
type opener = func(*storage.BufferPool) (core.AccessMethod, error)

// Catalog returns every access method in its standard configuration — the
// cast of Figure 1. Under opt.WAL the B+-tree and the LSMs open behind a
// write-ahead log and recover through it (faults.DurableToCommit); every
// other row is the same with or without it.
func Catalog(opt Options) []Spec {
	opt.defaults()
	if opt.WAL && opt.Versions > 0 {
		panic("methods: Options.WAL and Options.Versions are mutually exclusive")
	}
	row := func(name string, corner rum.Corner, open opener) Spec {
		return Spec{Subject: faults.Subject{Name: name, Open: open, Durability: faults.Lossy}, Corner: corner, opt: opt}
	}
	inMemory := func(name string, corner rum.Corner, build func() (core.AccessMethod, error)) Spec {
		return row(name, corner, func(*storage.BufferPool) (core.AccessMethod, error) { return build() })
	}
	// logged swaps a loggable row onto the write-ahead log when opt.WAL.
	wcfg := opt.walConfig()
	logged := func(s Spec, open, reopen opener) Spec {
		if opt.WAL {
			s.Open, s.Reopen, s.Durability = open, reopen, faults.DurableToCommit
		}
		return s
	}
	bt := btree.Config{Versions: opt.Versions}
	btreeRow := row("btree", rum.ReadOptimized, func(p *storage.BufferPool) (core.AccessMethod, error) { return btree.New(p, bt) })
	btreeRow.Reopen = func(p *storage.BufferPool) (core.AccessMethod, error) { return btree.Recover(p, bt) }
	// The catalog LSMs carry no Bloom filters: Figure 1 plots the plain
	// LSM-tree; per-run filters are the Section-5 enhancement whose RUM
	// effect Figure 3 sweeps explicitly.
	lsmRow := func(name string, tiering bool) Spec {
		cfg := lsm.Config{MemtableRecords: 1024, SizeRatio: 10, Tiering: tiering, Versions: opt.Versions}
		return logged(row(name, rum.WriteOptimized, func(p *storage.BufferPool) (core.AccessMethod, error) { return lsm.New(p, cfg), nil }),
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewLSM(p, cfg, wcfg) },
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.RecoverLSM(p, cfg, wcfg) })
	}
	return []Spec{
		logged(btreeRow,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewBTree(p, bt, wcfg) },
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.RecoverBTree(p, bt, wcfg) }),
		// No persisted directory: no recovery path.
		row("hash", rum.ReadOptimized, func(p *storage.BufferPool) (core.AccessMethod, error) {
			return hashindex.New(p, hashindex.Config{})
		}),
		inMemory("skiplist", rum.ReadOptimized, func() (core.AccessMethod, error) { return skiplist.New(1, 0.5, nil), nil }),
		inMemory("trie", rum.ReadOptimized, func() (core.AccessMethod, error) { return trie.New(8, nil) }),
		lsmRow("lsm-level", false),
		lsmRow("lsm-tier", true),
		inMemory("zonemap", rum.SpaceOptimized, func() (core.AccessMethod, error) { return zonemap.New(256, nil), nil }),
		inMemory("bitmap", rum.SpaceOptimized, func() (core.AccessMethod, error) {
			return bitmap.New(bitmap.Config{Cardinality: 16, MergeThreshold: 64}, nil), nil
		}),
		inMemory("sorted-column", rum.SpaceOptimized, func() (core.AccessMethod, error) { return column.NewSorted(nil), nil }),
		inMemory("unsorted-column", rum.SpaceOptimized, func() (core.AccessMethod, error) { return column.NewUnsorted(nil), nil }),
		inMemory("cracking", rum.Balanced, func() (core.AccessMethod, error) { return cracking.New(1<<16, nil), nil }),
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
// read-optimized B+-tree (the catalog's row) and a write-optimized LSM, each
// priced as the analytic model prices it. (No zone map any more: on no
// substrate Options can build does model or profiler seat it below the LSM.)
func Flavors(opt Options) []Flavor {
	bt, _ := model.Lookup("btree")
	row, _ := Lookup(opt, "btree")
	ls := model.Config{Method: "lsm-level", SizeRatio: 8, BloomBits: 10, Buffer: 1024}
	return []Flavor{
		{Name: "btree", Config: bt, New: row.open},
		{Name: "lsm", Config: ls, New: func(meter *rum.Meter) core.AccessMethod {
			return lsm.New(NewPool(opt, meter), lsm.Config{
				MemtableRecords: int(ls.Buffer), SizeRatio: int(ls.SizeRatio), BloomBitsPerKey: ls.BloomBits,
			})
		}},
	}
}
