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
	"math/bits"
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

// GroupWidth is how many independent searches SearchGroup advances in
// lock-step. Widths 8, 16 and 32 read the same within noise (100–109, 102–114
// and 104–109 ns per key through the B+-tree's Snapshot.GetBatch on a
// 131 072-key tree; width 4: 111–126, width 1: 215–238, the per-key loop
// 208–215) — sixteen outstanding loads already cover what a core keeps in
// flight — so it is a constant, not an option.
const GroupWidth = 16

// SearchGroup is the lock-step binary search that the B+-tree's and the
// LSM-tree's batched lookups share: lane i searches pages[i] for keys[i], for
// the first len(keys) lanes (at most GroupWidth). A page holds its entries
// from byte first on, stride bytes apart, each led by its little-endian
// uint64 key, keys ascending. pos[i] holds lane i's entry count on entry and
// its answer on return: the position of the first entry whose key is >=
// keys[i], or > keys[i] with incl. A lane of count 0 reads nothing of its
// page. Each halving step of a base/length binary search is taken for every
// lane before the next step, so the lanes' key loads — one dependent cache
// miss per step in a single-key search — are outstanding together.
func SearchGroup(pages *[GroupWidth][]byte, keys []Key, pos *[GroupWidth]int, first, stride int, incl bool) {
	// Lane i advances past the probe when probe < k + in: probe < k is the
	// rule without incl, probe <= k the rule with it. Taken as the borrow of a
	// subtraction so that the step is arithmetic, not a branch that is wrong
	// half the time and drains the other lanes' loads with it.
	var in uint64
	if incl {
		in = 1
	}
	// The answer of lane i lies in [lo[i], lo[i]+length[i]]. Local copies
	// bounded by w keep the step loop free of spills and lane-index checks,
	// and each lane's entries are sliced from first once, so that the step
	// loop adds no offset of its own: it is as short as a kernel written for
	// one page format.
	w := min(len(keys), GroupWidth)
	var (
		entries    [GroupWidth][]byte
		ks         [GroupWidth]Key
		lo, length [GroupWidth]uint
	)
	step := uint(stride)
	steps := 0
	for i := 0; i < w; i++ {
		ks[i], length[i] = keys[i], uint(pos[i])
		if length[i] > 0 {
			entries[i] = pages[i][first:]
		}
		steps = max(steps, bits.Len(length[i]))
	}
	for ; steps > 0; steps-- {
		for i := 0; i < w; i++ {
			n := length[i]
			if n == 0 {
				continue // a page with fewer entries than the widest finishes early
			}
			// Probe the last entry of the lower half (the only entry when
			// n == 1): past it, the answer is in the upper half.
			half := (n + 1) / 2
			// The full slice expression spares the load any capacity arithmetic.
			off := (lo[i] + half - 1) * step
			probe := binary.LittleEndian.Uint64(entries[i][off : off+8 : off+8])
			_, past := bits.Sub64(probe, ks[i], in)
			lo[i] += half & -uint(past)
			length[i] = n - half
		}
	}
	for i := 0; i < w; i++ {
		pos[i] = int(lo[i])
	}
}

// Errors shared by access-method implementations.
var (
	// ErrKeyExists is returned by Insert when the key is already present in a
	// structure that enforces key uniqueness.
	ErrKeyExists = errors.New("core: key already exists")
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
// result of any later call, only when and how the device reads happen. A
// structure may keep what the hint computed, such as each key's route, for
// the operations that follow, for as long as its shape is unchanged.
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
