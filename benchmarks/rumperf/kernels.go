package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
	"repro/internal/wal"
)

const (
	kernelCalls = 1 << 17 // calls per storage kernel, at full size
	kernelPages = 4096    // pages of the kernels' private device
	kernelBatch = 8       // pages per batch call: the mqssd's channels
)

// storageKernels times the public calls of storage one at a time on a
// private mqssd device, the medium on which batches are priced as batches.
// The numbers do not depend on the workload. A call that fails panics: the
// kernels inject no faults, so only a bug can fail one.
func (h *harness) storageKernels(vals map[string]float64) {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("rumperf: storage kernel: %v", err))
		}
	}
	calls := kernelCalls / h.sz.div
	dev := storage.NewDevice(pageSize, storage.MQSSD, nil)
	ids := make([]storage.PageID, kernelPages)
	buf := make([]byte, pageSize)
	for i := range ids {
		ids[i] = dev.Alloc(rum.Base)
		must(dev.Write(ids[i], buf))
	}
	group := make([][]byte, kernelBatch)
	for i := range group {
		group[i] = buf
	}
	// batchAt returns the ids of the i-th batch, cycling over the device.
	batchAt := func(i int) []storage.PageID {
		lo := i * kernelBatch % kernelPages
		return ids[lo : lo+kernelBatch]
	}

	vals["storage.dev_read_ns"] = h.timeBlocks("storage.Device.Read", calls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, err := dev.Read(ids[i%kernelPages])
			must(err)
		}
	})
	vals["storage.dev_write_ns"] = h.timeBlocks("storage.Device.Write", calls, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			must(dev.Write(ids[i%kernelPages], buf))
		}
	})
	batches := calls / kernelBatch
	vals["storage.dev_readbatch_ns_per_page"] = h.timeBlocks("storage.Device.ReadBatch", batches, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			_, err := dev.ReadBatch(batchAt(i))
			must(err)
		}
	}) / kernelBatch
	vals["storage.dev_writebatch_ns_per_page"] = h.timeBlocks("storage.Device.WriteBatch", batches, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			must(dev.WriteBatch(batchAt(i), group))
		}
	}) / kernelBatch

	// fetch cycles over the device in page order. A pool that holds every
	// page always hits; a small LRU pool under the same cycle always misses.
	fetch := func(pool *storage.BufferPool, dirty bool) func(lo, hi int) {
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				f, err := pool.Fetch(ids[i%kernelPages])
				must(err)
				if dirty {
					f.MarkDirty()
				}
				pool.Release(f)
			}
		}
	}
	resident := storage.NewBufferPool(dev, kernelPages)
	fetch(resident, false)(0, kernelPages)
	vals["storage.pool_hit_ns"] = h.timeBlocks("storage.BufferPool.Fetch hit", calls, fetch(resident, false))
	vals["storage.pool_miss_ns"] = h.timeBlocks("storage.BufferPool.Fetch miss", calls,
		fetch(storage.NewBufferPool(dev, 64), false))
	vals["storage.pool_dirty_evict_ns"] = h.timeBlocks("storage.BufferPool.Fetch dirty-evict", calls,
		fetch(storage.NewBufferPool(dev, 64), true))

	ahead := storage.NewBufferPool(dev, 64)
	vals["storage.pool_readahead_ns_per_page"] = h.timeBlocks("storage.BufferPool.Readahead", batches, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if ahead.Readahead(batchAt(i)) != kernelBatch {
				panic("rumperf: storage kernel: short readahead")
			}
		}
	}) / kernelBatch

	const flushPages = 1024
	flushed := storage.NewBufferPool(dev, flushPages)
	vals["storage.pool_flushall_ns_per_page"] = h.timeCalls("storage.BufferPool.FlushAll", calls/flushPages, 1,
		func(int, int) { fetch(flushed, true)(0, flushPages) },
		func(int, int) { flushed.FlushAll() }) / flushPages
}

// commitKernels times wal.Logged.Commit alone at three group sizes: the
// records of a group are inserted off the clock into a log that never
// commits by itself.
func (h *harness) commitKernels(vals map[string]float64) error {
	_, pool := h.w.newPool()
	cfg := walCfg
	cfg.CommitBatch = 1 << 30
	lg, err := wal.NewLSM(pool, lsmCfg, cfg)
	if err != nil {
		return err
	}
	key := core.Key(1)
	var failed error
	for _, b := range []int{1, 8, 32} {
		name := fmt.Sprintf("wal.commit_ns_b%d", b)
		vals[name] = h.timeCalls(name, 2048/h.sz.div, 1,
			func(int, int) {
				for i := 0; i < b; i++ {
					if err := lg.Insert(key, core.Value(key)); err != nil {
						failed = err
					}
					key++
				}
			},
			func(int, int) {
				if err := lg.Commit(); err != nil {
					failed = err
				}
			})
	}
	return failed
}
