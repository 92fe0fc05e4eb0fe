package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// The byte-identity pin. The digests below were recorded at the commit
// before the checkpoint became a sorted hand-off (PR 16's parent) and must
// never be regenerated to make a change pass: a checkpoint or commit-path
// optimisation may read less and cost less, but what it writes — log pages,
// run pages, manifest pages, every counter of written traffic — may not
// move by a byte.
//
// Three digests are not that commit's (every other row is):
//
//   - btree (image; recorded after PR 16, the logical digest is the parent's):
//     the parent's checkpoint ran Update-then-Insert and Delete for every
//     overlay entry, and under the copy-on-write discipline the log needs
//     (Versions >= 2) those descents copy the root-to-leaf path before they
//     learn the key is absent. Choosing the operation from the base bit
//     removes the path copies a tombstone over a never-checkpointed key used
//     to cost (CowCopies 11693 -> 11680 on this stream) and copies an
//     insert's path leaf-first instead of root-first, so page ids — and the
//     root id in the checkpoint blob — differ while the tree holds the same
//     records in the same leaves (LeafSplits, InternalSplits, height equal).
//   - lsm-tier (image and logical; recorded at PR 21): until then a tiered
//     merge dropped its tombstones whenever nothing sat deeper than its
//     target level, although older runs resident in that level were not merge
//     inputs and could still hold the deleted key, which then came back. The
//     planner (internal/lsm/plan) now keeps tombstones past such bystanders,
//     so this stream writes different runs and serves different records —
//     the ones its map model predicts, which opStream.check now holds it to.
//     Without deletes there is no tombstone to keep: lsm-tier-nodeletes is
//     still the PR 16 parent's digest, the proof that nothing else moved.

const (
	pinOps   = 50_000
	pinSeed  = 0x16_0001
	pinPool  = 256
	pinPageB = 512 // small pages: the structures outgrow the pool and evict
)

var pinConfig = Config{CommitBatch: 32, CheckpointEvery: 1024}

// pinned is what one structure's run is held to. image covers every live
// device page in id order, the log's data pages sampled while the stream
// runs, and the written-traffic ledger; logical covers only what does not
// depend on the inner structure's page allocation order: the sampled log
// pages, the log's counters, and the records served.
var pinned = map[string]struct{ image, logical string }{
	"btree": {
		image:   "d2115872e5d4852a3859dc7a1e86d8ec46bd6a377206e278ad23d3172703e525", // PR 16, see above
		logical: "7c690f4e964aaf8ba31fbd09cb7a61fc34405b2691f548af2bdb7fdd85ce621f",
	},
	"lsm-level": {
		image:   "24c0871256ed30a926176189685245e2df818623a5ef4a4d7a3345c6bca42520",
		logical: "da62f51524e5f556d4761766e7f2dfc05d9ca6d8717f452216e954fb3370d832",
	},
	"lsm-tier": {
		image:   "5ceb081ea5b0ec456c65c27b35f3db971d632adfdff091c80da59d3d27740b53", // PR 21, see above
		logical: "e8f6d916fc91ef3593b46c64d9698cc9554e1cf57783897be223d95322d5c3ae", // PR 21
	},
	"lsm-tier-nodeletes": {
		image:   "46a94858a5b49628ac6223ead56c9d619f79ea724136bcb896aac6ee8b6324ee",
		logical: "5cf481f313ff9a001d38d37694076c89be5669fe98819f16204f2fc9cbb89bbc",
	},
}

// writeLedger hashes the counters of written traffic and logical state.
func writeLedger(h hash.Hash, l *Logged) {
	st := l.Stats()
	fmt.Fprintf(h, "wal commits=%d syncs=%d checkpoints=%d logpages=%d logbytes=%d recycled=%d live=%d overlay=%d\n",
		st.Commits, st.Syncs, st.Checkpoints, st.LogPagesWritten, st.LogBytesWritten,
		st.PagesRecycled, st.LiveLogPages, st.OverlayRecords)
	fmt.Fprintf(h, "committed=%d len=%d\n", l.Committed(), l.Len())
}

// innerLedger renders the inner structure's own counters.
func innerLedger(l *Logged) string {
	switch in := l.in.(type) {
	case btreeInner:
		return fmt.Sprintf("btree %+v height=%d", in.Tree.Stats(), in.Tree.Height())
	case *lsmInner:
		return fmt.Sprintf("lsm %+v runs=%d depth=%d", in.Tree.Stats(), in.Tree.Runs(), in.Tree.Depth())
	}
	return "unknown inner"
}

// hashLogPages folds the image of every live data-record log page into h, in
// id order but without the ids (where log pages land among the structure's
// own allocations is the structure's business). Checkpoint records are left
// to the full device image: the btree's carries a root page id.
func hashLogPages(t *testing.T, h hash.Hash, dev *storage.Device) {
	t.Helper()
	for _, id := range dev.LivePageIDs() {
		data, err := dev.Read(id)
		if err != nil {
			t.Fatalf("read of live page %d: %v", id, err)
		}
		if p, ok := scanLogPage(id, data); ok && len(p.payload) > 0 && p.payload[0] != recCheckpoint {
			h.Write(data)
		}
	}
}

// digests computes the image and logical digests of a checkpointed stack;
// logd has sampled the log's data pages while the stream ran.
func digests(t *testing.T, l *Logged, dev *storage.Device, logd hash.Hash) (image, logical string) {
	t.Helper()
	written := dev.Stats() // before the digest's own page reads
	logSum := logd.Sum(nil)
	img, lg := sha256.New(), sha256.New()
	var id4 [4]byte
	for _, id := range dev.LivePageIDs() {
		data, err := dev.Read(id)
		if err != nil {
			t.Fatalf("read of live page %d: %v", id, err)
		}
		binary.LittleEndian.PutUint32(id4[:], uint32(id))
		img.Write(id4[:])
		img.Write(data)
	}
	img.Write(logSum)
	writeLedger(img, l)
	fmt.Fprintf(img, "%s\n", innerLedger(l))
	fmt.Fprintf(img, "dev writes=%d allocated=%d freed=%d\n", written.PageWrites, written.PagesAllocated, written.PagesFreed)

	lg.Write(logSum)
	writeLedger(lg, l)
	l.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		fmt.Fprintf(lg, "%d=%d\n", k, v)
		return true
	})
	return fmt.Sprintf("%x", img.Sum(nil)), fmt.Sprintf("%x", lg.Sum(nil))
}

func TestWrittenImagePinned(t *testing.T) {
	tierNoDeletes := lsmStructure("lsm-tier-nodeletes", lsm.Config{MemtableRecords: 192, SizeRatio: 4, Tiering: true})
	for _, s := range append(structures(), tierNoDeletes) {
		t.Run(s.name, func(t *testing.T) {
			dev := storage.NewDevice(pinPageB, storage.MQSSD, nil)
			pool := storage.NewBufferPool(dev, pinPool)
			l, err := s.open(pool, pinConfig)
			if err != nil {
				t.Fatal(err)
			}
			ops := newOpStream(pinSeed)
			ops.noDeletes = s.name == tierNoDeletes.name
			logd := sha256.New()
			for i := 0; i < pinOps; i++ {
				ops.step(t, l)
				if i%1009 == 0 {
					hashLogPages(t, logd, dev)
				}
			}
			if err := l.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			ops.check(t, l)
			image, logical := digests(t, l, dev, logd)
			want := pinned[s.name]
			if image != want.image || logical != want.logical {
				t.Fatalf("written image moved:\n image   %s (pinned %s)\n logical %s (pinned %s)\n %s; %+v",
					image, want.image, logical, want.logical, innerLedger(l), l.Stats())
			}
		})
	}
}
