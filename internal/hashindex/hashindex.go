// Package hashindex implements a bucketed hash index over the simulated
// pager: Table 1's "Perfect Hash Index" row. Point queries and in-place
// updates touch O(1) pages; range queries must read every bucket (O(N/B));
// the directory plus bucket slack is the space price of constant-time
// access.
//
// Buckets are pages of records with overflow chaining. When the load factor
// is exceeded the index doubles its directory and rehashes — the O(N)
// reorganization that the bulk-creation row of Table 1 charges. BulkLoad
// sizes the directory up front so that buckets start overflow-free
// (the "perfect" static case).
package hashindex

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/storage"
)

// Bucket page layout:
//
//	bytes 2:4   record count (uint16)
//	bytes 4:8   overflow page id (InvalidPage when none)
//	bytes 12:   records, 16 bytes each, unordered
const (
	headerSize = 12
	entrySize  = core.RecordSize
	// dirEntrySize accounts the in-memory directory at 4 bytes per bucket.
	dirEntrySize = 4
)

type bucket struct{ data []byte }

func (b bucket) count() int     { return int(binary.LittleEndian.Uint16(b.data[2:4])) }
func (b bucket) setCount(c int) { binary.LittleEndian.PutUint16(b.data[2:4], uint16(c)) }
func (b bucket) overflow() storage.PageID {
	return storage.PageID(binary.LittleEndian.Uint32(b.data[4:8]))
}
func (b bucket) setOverflow(id storage.PageID) {
	binary.LittleEndian.PutUint32(b.data[4:8], uint32(id))
}
func (b bucket) key(i int) core.Key {
	return binary.LittleEndian.Uint64(b.data[headerSize+i*entrySize:])
}
func (b bucket) value(i int) core.Value {
	return binary.LittleEndian.Uint64(b.data[headerSize+i*entrySize+8:])
}
func (b bucket) set(i int, k core.Key, v core.Value) {
	off := headerSize + i*entrySize
	binary.LittleEndian.PutUint64(b.data[off:], k)
	binary.LittleEndian.PutUint64(b.data[off+8:], v)
}
func (b bucket) find(k core.Key) int {
	for i := 0; i < b.count(); i++ {
		if b.key(i) == k {
			return i
		}
	}
	return -1
}

// Config tunes the index.
type Config struct {
	// InitialBuckets is the starting directory size (default 8).
	InitialBuckets int
	// MaxLoad is records per bucket-page slot fraction that triggers a
	// directory doubling (default 0.8 of one page per bucket).
	MaxLoad float64
}

// Index is the hash index. Bucket pages hold the records themselves (a
// primary hash organization), so they are allocated as base data; overflow
// pages likewise; the directory is auxiliary.
type Index struct {
	pool    *storage.BufferPool
	cfg     Config
	dir     []storage.PageID
	count   int
	pages   uint64 // total bucket+overflow pages
	perPage int
}

// New creates an empty index on pool.
func New(pool *storage.BufferPool, cfg Config) (*Index, error) {
	if cfg.InitialBuckets <= 0 {
		cfg.InitialBuckets = 8
	}
	if cfg.MaxLoad <= 0 {
		cfg.MaxLoad = 0.8
	}
	perPage := (pool.Device().PageSize() - headerSize) / entrySize
	if perPage < 1 {
		return nil, fmt.Errorf("hashindex: page size %d too small", pool.Device().PageSize())
	}
	idx := &Index{pool: pool, cfg: cfg, perPage: perPage}
	if err := idx.initDir(cfg.InitialBuckets); err != nil {
		return nil, err
	}
	return idx, nil
}

func (x *Index) initDir(n int) error {
	x.dir = make([]storage.PageID, n)
	for i := range x.dir {
		f, err := x.pool.NewPage(rum.Base)
		if err != nil {
			return err
		}
		f.MarkDirty()
		bucket{f.Data()}.setOverflow(storage.InvalidPage)
		x.dir[i] = f.ID()
		x.pool.Release(f)
	}
	x.pages = uint64(n)
	return nil
}

// Name identifies the index and its directory size.
func (x *Index) Name() string { return fmt.Sprintf("hash(buckets=%d)", len(x.dir)) }

// Len returns the number of records.
func (x *Index) Len() int { return x.count }

// Pool returns the buffer pool the index runs on.
func (x *Index) Pool() *storage.BufferPool { return x.pool }

// Meter returns the device meter accumulating physical traffic.
func (x *Index) Meter() *rum.Meter { return x.pool.Device().Meter() }

// Size reports records as base bytes; bucket slack, overflow slack, and the
// directory as auxiliary bytes.
func (x *Index) Size() rum.SizeInfo {
	pageBytes := x.pages * uint64(x.pool.Device().PageSize())
	base := uint64(x.count) * core.RecordSize
	if base > pageBytes {
		base = pageBytes
	}
	return rum.SizeInfo{
		BaseBytes: base,
		AuxBytes:  pageBytes - base + uint64(len(x.dir))*dirEntrySize,
	}
}

// Flush writes all buffered dirty pages to the device.
func (x *Index) Flush() { x.pool.FlushAll() }

func hash(k core.Key) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

func (x *Index) bucketOf(k core.Key) storage.PageID {
	return x.dir[hash(k)%uint64(len(x.dir))]
}

// Get probes the bucket chain for k: O(1) pages in the non-overflowing case.
func (x *Index) Get(k core.Key) (core.Value, bool) {
	pid := x.bucketOf(k)
	for pid != storage.InvalidPage {
		f, err := x.pool.Fetch(pid)
		if err != nil {
			return 0, false
		}
		b := bucket{f.Data()}
		if i := b.find(k); i >= 0 {
			v := b.value(i)
			x.pool.Release(f)
			return v, true
		}
		pid = b.overflow()
		x.pool.Release(f)
	}
	return 0, false
}

// Insert adds a record to its bucket chain, allocating an overflow page when
// the chain is full, and doubles the directory past the load threshold.
func (x *Index) Insert(k core.Key, v core.Value) error {
	if x.loadFactor() > x.cfg.MaxLoad {
		if err := x.grow(); err != nil {
			return err
		}
	}
	return x.insertNoGrow(k, v, true)
}

func (x *Index) loadFactor() float64 {
	return float64(x.count) / float64(len(x.dir)*x.perPage)
}

func (x *Index) insertNoGrow(k core.Key, v core.Value, checkDup bool) error {
	// With uniqueness checking the whole chain must be examined before
	// inserting: deletes leave free slots in early pages while the key may
	// still live in a later overflow page.
	if checkDup {
		pid := x.bucketOf(k)
		for pid != storage.InvalidPage {
			f, err := x.pool.Fetch(pid)
			if err != nil {
				return err
			}
			b := bucket{f.Data()}
			if b.find(k) >= 0 {
				x.pool.Release(f)
				return core.ErrKeyExists
			}
			pid = b.overflow()
			x.pool.Release(f)
		}
	}
	pid := x.bucketOf(k)
	for {
		f, err := x.pool.Fetch(pid)
		if err != nil {
			return err
		}
		b := bucket{f.Data()}
		if b.count() < x.perPage {
			f.MarkDirty()
			b = bucket{f.Data()}
			b.set(b.count(), k, v)
			b.setCount(b.count() + 1)
			x.pool.Release(f)
			x.count++
			return nil
		}
		next := b.overflow()
		if next == storage.InvalidPage {
			of, err := x.pool.NewPage(rum.Base)
			if err != nil {
				x.pool.Release(f)
				return err
			}
			of.MarkDirty()
			ob := bucket{of.Data()}
			ob.setOverflow(storage.InvalidPage)
			ob.set(0, k, v)
			ob.setCount(1)
			f.MarkDirty()
			bucket{f.Data()}.setOverflow(of.ID())
			x.pool.Release(of)
			x.pool.Release(f)
			x.pages++
			x.count++
			return nil
		}
		x.pool.Release(f)
		pid = next
	}
}

// grow doubles the directory and rehashes every record: the O(N)
// reorganization cost, charged through page traffic.
func (x *Index) grow() error {
	old := x.dir
	recs := make([]core.Record, 0, x.count)
	for _, pid := range old {
		for pid != storage.InvalidPage {
			f, err := x.pool.Fetch(pid)
			if err != nil {
				return err
			}
			b := bucket{f.Data()}
			for i := 0; i < b.count(); i++ {
				recs = append(recs, core.Record{Key: b.key(i), Value: b.value(i)})
			}
			next := b.overflow()
			x.pool.Release(f)
			if err := x.pool.FreePage(pid); err != nil {
				return err
			}
			pid = next
		}
	}
	if err := x.initDir(2 * len(old)); err != nil {
		return err
	}
	x.count = 0
	for _, r := range recs {
		if err := x.insertNoGrow(r.Key, r.Value, false); err != nil {
			return err
		}
	}
	return nil
}

// Update overwrites an existing record in place.
func (x *Index) Update(k core.Key, v core.Value) bool {
	pid := x.bucketOf(k)
	for pid != storage.InvalidPage {
		f, err := x.pool.Fetch(pid)
		if err != nil {
			return false
		}
		b := bucket{f.Data()}
		if i := b.find(k); i >= 0 {
			f.MarkDirty()
			bucket{f.Data()}.set(i, k, v)
			x.pool.Release(f)
			return true
		}
		pid = b.overflow()
		x.pool.Release(f)
	}
	return false
}

// Delete removes a record, filling its slot with the bucket's last record.
func (x *Index) Delete(k core.Key) bool {
	pid := x.bucketOf(k)
	for pid != storage.InvalidPage {
		f, err := x.pool.Fetch(pid)
		if err != nil {
			return false
		}
		b := bucket{f.Data()}
		if i := b.find(k); i >= 0 {
			f.MarkDirty()
			b = bucket{f.Data()}
			last := b.count() - 1
			b.set(i, b.key(last), b.value(last))
			b.setCount(last)
			x.pool.Release(f)
			x.count--
			return true
		}
		pid = b.overflow()
		x.pool.Release(f)
	}
	return false
}

// RangeScan reads every bucket page — hashing destroys order, so a range
// query is a full scan (Table 1's O(N/B)). Records are emitted in physical
// (bucket) order, not key order.
func (x *Index) RangeScan(lo, hi core.Key, emit func(core.Key, core.Value) bool) int {
	n := 0
	for _, root := range x.dir {
		pid := root
		for pid != storage.InvalidPage {
			f, err := x.pool.Fetch(pid)
			if err != nil {
				return n
			}
			b := bucket{f.Data()}
			for i := 0; i < b.count(); i++ {
				k := b.key(i)
				if k >= lo && k <= hi {
					n++
					if !emit(k, b.value(i)) {
						x.pool.Release(f)
						return n
					}
				}
			}
			pid = b.overflow()
			x.pool.Release(f)
		}
	}
	return n
}

// BulkLoad replaces the contents with recs, sizing the directory so buckets
// start within the load threshold (the O(N) bulk-creation row of Table 1).
func (x *Index) BulkLoad(recs []core.Record) error {
	// Free all current pages.
	for _, root := range x.dir {
		pid := root
		for pid != storage.InvalidPage {
			f, err := x.pool.Fetch(pid)
			if err != nil {
				return err
			}
			next := bucket{f.Data()}.overflow()
			x.pool.Release(f)
			if err := x.pool.FreePage(pid); err != nil {
				return err
			}
			pid = next
		}
	}
	need := int(float64(len(recs))/(x.cfg.MaxLoad*float64(x.perPage))) + 1
	n := 1
	for n < need {
		n *= 2
	}
	if err := x.initDir(n); err != nil {
		return err
	}
	x.count = 0
	for _, r := range recs {
		if err := x.insertNoGrow(r.Key, r.Value, false); err != nil {
			return err
		}
	}
	return nil
}
