// Package core defines the access-method abstraction the rest of the
// repository is built around, together with the paper's primary
// contribution: RUM profiling of access methods (profiler.go) and an
// access-method wizard (wizard.go) that ranks model-priced configurations
// for a workload — the Section 5 roadmap items. A structure is tuned once,
// when it is built from its Config; the morphing engine that moves a running
// index between configurations lives in internal/methods (morph.go).
//
// Records are fixed-size (Key, Value) pairs of uint64, matching the paper's
// running example of an array of fixed-size integers organized in blocks;
// the fixed 16-byte record makes amplification accounting exact and
// structure-independent.
package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/rum"
)

// Key is the search key of a record.
type Key = uint64

// Value is the payload of a record.
type Value = uint64

// KeySize, ValueSize and RecordSize are the fixed on-page encodings.
const (
	KeySize    = 8
	ValueSize  = 8
	RecordSize = KeySize + ValueSize
)

// Record is one (key, value) pair.
type Record struct {
	Key   Key
	Value Value
}

// SortRecords orders recs by key ascending.
func SortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
}

// EncodeRecord writes r into b, which must be at least RecordSize long.
func EncodeRecord(b []byte, r Record) {
	binary.LittleEndian.PutUint64(b[0:8], r.Key)
	binary.LittleEndian.PutUint64(b[8:16], r.Value)
}

// DecodeRecord reads a record from b, which must be at least RecordSize long.
func DecodeRecord(b []byte) Record {
	return Record{
		Key:   binary.LittleEndian.Uint64(b[0:8]),
		Value: binary.LittleEndian.Uint64(b[8:16]),
	}
}

// Errors shared by access-method implementations.
var (
	// ErrKeyExists is returned by Insert when the key is already present in a
	// structure that enforces key uniqueness.
	ErrKeyExists = errors.New("core: key already exists")
	// ErrOutOfRange is returned by structures with a bounded key domain
	// (e.g. the Prop-1 direct-address array) for keys they cannot store.
	ErrOutOfRange = errors.New("core: key out of supported range")
	// ErrNoSnapshots is returned by Publish when the underlying structure
	// does not implement SnapshotReader.
	ErrNoSnapshots = errors.New("core: access method does not support snapshots")
)

// AccessMethod is the uniform interface over every structure in this
// repository ("algorithms and data structures for organizing and accessing
// data", the paper's definition). All implementations meter the physical and
// logical bytes of every operation through a rum.Meter, so their read, write
// and space amplification can be compared like for like.
//
// Key uniqueness: Insert of an existing key returns ErrKeyExists for
// structures that can check it at no extra asymptotic cost, and is documented
// per structure otherwise (the append-only log simply shadows older
// versions). Update and Delete report whether the key existed.
type AccessMethod interface {
	// Name identifies the structure (and its tuning), e.g. "btree(B=256)".
	Name() string

	// Get returns the value for k and whether it was found.
	Get(k Key) (Value, bool)

	// Insert adds a new record.
	Insert(k Key, v Value) error

	// Update modifies an existing record, reporting whether it existed.
	Update(k Key, v Value) bool

	// Delete removes a record, reporting whether it existed.
	Delete(k Key) bool

	// RangeScan calls emit for every record with lo <= key <= hi, in
	// ascending key order where the structure supports order (hash-based
	// structures document their scan order). Scanning stops early if emit
	// returns false. It returns the number of records emitted.
	RangeScan(lo, hi Key, emit func(Key, Value) bool) int

	// Len returns the number of live records.
	Len() int

	// Meter exposes the structure's cumulative RUM accounting.
	Meter() *rum.Meter

	// Size reports current space usage split into base and auxiliary bytes.
	Size() rum.SizeInfo
}

// BulkLoader is implemented by structures that support bulk creation from a
// key-sorted record slice (the "Bulk Creation Cost" column of Table 1).
type BulkLoader interface {
	// BulkLoad replaces the structure's contents with recs, which must be
	// sorted by key and free of duplicates.
	BulkLoad(recs []Record) error
}

// BatchGetter is implemented by structures that serve a run of point reads
// at once: the B+-tree and the LSM-tree. GetBatch is len(keys) Gets: vals[i],
// oks[i] are what Get(keys[i]) returns (vals[i] is 0 on a miss). On a pool
// that does not batch I/O the meter, cache and device also see what those
// Gets do to them, in the same order. On a batching pool
// (storage.BufferPool.IOBatch above 1) the values and the meter are the same,
// but the pages one step of the lookups misses — a B+-tree level, an LSM run —
// arrive as one Readahead wave: each still counts one miss and one device
// read, while the LRU order, hit count and cost units may differ from the
// loop's.
type BatchGetter interface {
	GetBatch(keys []Key, vals []Value, oks []bool)
}

// Prefetcher is implemented by structures that can look up, in one batch, the
// keys a coming run of operations will touch: wal.Logged, whose mutations
// each probe the structure under the log, and the B+-tree, which reads ahead
// the pages each key's descent will fetch. Prefetch is a hint: it changes no
// result of any later call, only when and how the device reads happen.
type Prefetcher interface {
	Prefetch(keys []Key)
}

// Flusher is implemented by structures that buffer writes (e.g. through a
// buffer pool or memtable) and can force them to the simulated device so that
// write amplification includes deferred traffic.
type Flusher interface {
	Flush()
}

// Flush forces am's buffered writes down to its device if it buffers at all.
func Flush(am AccessMethod) {
	if f, ok := am.(Flusher); ok {
		f.Flush()
	}
}
