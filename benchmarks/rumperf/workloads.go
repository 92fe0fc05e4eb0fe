package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Load shape shared by every workload: a closed loop of clients that each
// wait for their reply, as callers of serve.Server.Do do.
const (
	batchSize    = 64 // requests per Do call, and serve.Config.MaxBatch
	warmupRounds = 2  // discarded from every wall-clock metric
	pageSize     = 4096
	snapGroup    = 16 // snapshot-read: 1 write batch per this many batches
	shadowOneIn  = 64 // ingest-wal: share of keys the recovery check reads back
)

// The store configuration under ingest-wal. The flush policy is part of the
// workload: the shard commits once per write-carrying mailbox message, the
// log commits by itself every CommitBatch records and checkpoints every
// CheckpointEvery overlay records.
var (
	lsmCfg = lsm.Config{MemtableRecords: 1024, SizeRatio: 10}
	walCfg = wal.Config{CommitBatch: 32, CheckpointEvery: 4096}
)

const flushPolicy = "commit per write-carrying mailbox message; wal CommitBatch 32, CheckpointEvery 4096; one Server.Flush checkpoint after every timed round of the fixed pass, none in the timing pass"

// workload is one row of the benchmark's workload table. The names are the
// contract later changes cite; benchmarks/README.md says what each is for.
type workload struct {
	name string
	why  string

	lsmWAL    bool // lsm-level behind wal.Logged; a plain btree otherwise
	n         int  // records preloaded, over all clients
	poolPages int  // buffer pool pages per shard
	medium    storage.Medium
	mix, dist string
	observed  bool // serve.Config.Trace and Workload taps on
	snapshots bool // MVCC bypass reads, see newStreams

	rumRounds       int     // rounds of the fixed pass the RUM and count metrics cover
	roundsPerSecond float64 // measured pace of a timing pass: generate, run, verify
	ladderOps       int     // requests the layer ladder replays
}

var workloads = []workload{
	{
		name: "point-cached",
		why:  "whole btree resident in the pool: serve, core and btree CPU do all the work and storage misses nothing; the bypass control for pool, device and tap changes",
		n:    262144, poolPages: 4096, medium: storage.RAM, mix: "read90", dist: "zipf:1.1",
		rumRounds: 10, roundsPerSecond: 9, ladderOps: 262144,
	},
	{
		name: "point-observed",
		why:  "point-cached traffic with the Trace and Workload taps on: the obs taps do most of the marginal work, so a tap change shows here and nowhere else",
		n:    262144, poolPages: 4096, medium: storage.RAM, mix: "read90", dist: "zipf:1.1",
		observed:  true,
		rumRounds: 8, roundsPerSecond: 6, ladderOps: 262144,
	},
	{
		name: "mixed-outofcache",
		why:  "btree far larger than its pool on mqssd, half writes: pool misses, dirty eviction, batched write-back and device accounting dominate; cache, batching and device changes show here",
		n:    524288, poolPages: 256, medium: storage.MQSSD, mix: "read50", dist: "uniform",
		rumRounds: 8, roundsPerSecond: 4, ladderOps: 131072,
	},
	{
		name: "ingest-wal",
		why:  "write-heavy lsm behind the write-ahead log on mqssd: group commit, memtable flush and compaction stalls dominate, and the run ends with a crash-recovery check of the durability contract",
		n:    262144, poolPages: 256, medium: storage.MQSSD, mix: "get=0.1,insert=0.6,update=0.2,delete=0.1", dist: "uniform",
		lsmWAL:    true,
		rumRounds: 4, roundsPerSecond: 0.8, ladderOps: 65536,
	},
	{
		name: "snapshot-read",
		why:  "MVCC bypass: 15 of 16 batches are pure reads served off snapshots on the client goroutine, the mailbox carries only the write batches; snapshot and copy-on-write changes show here, mailbox ones do not",
		n:    262144, poolPages: 4096, medium: storage.RAM, mix: "read100", dist: "zipf:1.1",
		snapshots: true,
		rumRounds: 10, roundsPerSecond: 13, ladderOps: 262144,
	},
}

// snapWriteMix is the write-only stream snapshot-read interleaves with its
// reads, on a namespace of its own.
var snapWriteMix = bench.ServeMix{Insert: 0.5, Update: 0.3, Delete: 0.2}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizing is everything the self-test shrinks; fullSize is what the benchmark
// runs.
type sizing struct {
	clients, shards int
	chunk           int // requests per client per round
	div             int // divides n, poolPages and ladderOps
	rounds          int // replaces rumRounds when not 0
}

var fullSize = sizing{clients: 2, shards: 2, chunk: 65536, div: 1}

func (w workload) scaled(sz sizing) workload {
	w.n /= sz.div
	w.ladderOps /= sz.div
	if w.poolPages /= sz.div; w.poolPages < 16 {
		w.poolPages = 16
	}
	if sz.rounds != 0 {
		w.rumRounds = sz.rounds
	}
	return w
}

// stack is one shard's storage stack. The harness keeps the handles so it can
// read the public stats of every layer from outside, and crash and reopen
// the device for the recovery check.
type stack struct {
	dev  *storage.Device
	pool *storage.BufferPool
	bt   *btree.Tree // nil under lsmWAL
	lt   *lsm.Tree   // only in the ladder's raw rung: wal.Logged hides its tree
	lg   *wal.Logged // nil without lsmWAL
}

func (w workload) newPool() (*storage.Device, *storage.BufferPool) {
	dev := storage.NewDevice(pageSize, w.medium, nil)
	return dev, storage.NewBufferPool(dev, w.poolPages)
}

func (w workload) btreeCfg() btree.Config {
	if w.snapshots {
		return btree.Config{Versions: 4}
	}
	return btree.Config{}
}

// buildRaw builds the bare structure of the workload: the btree, or the lsm
// tree the log would wrap.
func (w workload) buildRaw() (*stack, core.AccessMethod, error) {
	dev, pool := w.newPool()
	st := &stack{dev: dev, pool: pool}
	if w.lsmWAL {
		cfg := lsmCfg
		cfg.Manifest = true // what wal.NewLSM turns on
		st.lt = lsm.New(pool, cfg)
		return st, st.lt, nil
	}
	bt, err := btree.New(pool, w.btreeCfg())
	st.bt = bt
	return st, bt, err
}

// build builds the structure a shard serves, below core.Instrument.
func (w workload) build() (*stack, core.AccessMethod, error) {
	if !w.lsmWAL {
		return w.buildRaw()
	}
	dev, pool := w.newPool()
	lg, err := wal.NewLSM(pool, lsmCfg, walCfg)
	return &stack{dev: dev, pool: pool, lg: lg}, lg, err
}
