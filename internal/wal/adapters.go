package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// The two structures under the log differ in what their barrier is and what
// the checkpoint record must remember:
//
//   - B+-tree: the barrier is btree.CheckpointBarrier — a copy-on-write
//     publish without a reader view. The tree keeps no superblock, so the
//     checkpoint blob stores the barriered root page id; recovery validates
//     exactly that tree with btree.RecoverAt. The tree runs with at least
//     two retained versions: the reclamation lag guarantees the previous
//     barrier's pages are still byte-stable when a crash forces recovery
//     back to them, even mid-way through the next checkpoint.
//   - LSM: the barrier is the manifest commit lsm.Flush performs; the
//     manifest is generation-numbered and self-anchoring, so the blob is
//     empty and recovery is lsm.RecoverKeep (keep = the log's own pages).

// btreeWALConfig normalizes a tree config for life under the log: the
// copy-on-write discipline needs a retention window of at least two barriers
// (see above), and reader snapshots are not handed out, so Versions is a
// floor, not a choice.
func btreeWALConfig(cfg btree.Config) btree.Config {
	if cfg.Versions < 2 {
		cfg.Versions = 2
	}
	return cfg
}

type btreeInner struct{ *btree.Tree }

func (btreeInner) validate(core.Value) error { return nil }

// absorb applies the batch with one descent per change: base picks the
// operation, so there is no update-then-insert double descent and a tombstone
// over a key the tree never held costs nothing. An operation that contradicts
// its base bit fails the checkpoint (a fetch fault, or a bug — either way the
// overlay and the tree no longer agree).
func (b btreeInner) absorb(batch []change) error {
	for _, c := range batch {
		switch {
		case c.tomb && c.base:
			if !b.Tree.Delete(c.key) {
				return fmt.Errorf("wal: btree delete of key %d the checkpoint knew as live failed", c.key)
			}
		case c.tomb:
			// inserted and deleted inside one checkpoint interval
		case c.base:
			if !b.Tree.Update(c.key, c.val) {
				return fmt.Errorf("wal: btree update of key %d the checkpoint knew as live failed", c.key)
			}
		default:
			if err := b.Tree.Insert(c.key, c.val); err != nil {
				return fmt.Errorf("wal: btree insert of key %d: %w", c.key, err)
			}
		}
	}
	return nil
}

func (b btreeInner) barrier() ([]byte, error) {
	if err := b.Tree.CheckpointBarrier(); err != nil {
		return nil, err
	}
	var blob [8]byte
	binary.LittleEndian.PutUint64(blob[:], uint64(b.Tree.Root()))
	return blob[:], nil
}

type lsmInner struct {
	*lsm.Tree
	recs []core.Record // absorb's reusable hand-off to the sorted ingest
}

func (*lsmInner) validate(v core.Value) error {
	if v == lsm.Tombstone {
		return fmt.Errorf("wal: value %d is the reserved lsm tombstone", v)
	}
	return nil
}

// absorb hands the batch to the tree's sorted ingest: the overlay was the
// memtable all along, so its records become level-0 runs directly. The LSM
// writes blind and cannot keep its own count honest; base does — a live key
// overwritten or a tombstone over nothing leaves the count alone, the latter
// is not even written (it also covers a replayed delete that a manifest
// newer than the anchor already absorbed).
func (i *lsmInner) absorb(batch []change) error {
	recs, delta := i.recs[:0], 0
	for _, c := range batch {
		v := c.val
		switch {
		case c.tomb && !c.base:
			continue // already gone: nothing to write
		case c.tomb:
			v = lsm.Tombstone
			delta--
		case !c.base:
			delta++
		}
		recs = append(recs, core.Record{Key: c.key, Value: v})
	}
	i.recs = recs
	return i.Tree.IngestSorted(recs, delta)
}

func (i *lsmInner) barrier() ([]byte, error) {
	before := i.Tree.Stats().ManifestWrites
	i.Tree.Flush()
	if i.Tree.Stats().ManifestWrites == before {
		return nil, fmt.Errorf("wal: lsm manifest checkpoint did not commit")
	}
	return nil, nil
}

// NewBTree builds a fresh write-ahead-logged B+-tree on pool and seals its
// initial checkpoint. cfg.Versions is raised to the minimum retention the
// checkpoint protocol needs (2) if lower.
func NewBTree(pool *storage.BufferPool, cfg btree.Config, wcfg Config) (*Logged, error) {
	t, err := btree.New(pool, btreeWALConfig(cfg))
	if err != nil {
		return nil, err
	}
	return open(pool, btreeInner{t}, wcfg)
}

// RecoverBTree rebuilds a write-ahead-logged B+-tree from the device image
// under pool: newest checkpoint record, btree.RecoverAt at its root, log
// replay into the overlay. cfg must match the configuration the image was
// written under.
func RecoverBTree(pool *storage.BufferPool, cfg btree.Config, wcfg Config) (*Logged, error) {
	cfg = btreeWALConfig(cfg)
	return reopen(pool, wcfg, func(keep map[storage.PageID]bool, blob []byte) (inner, error) {
		if len(blob) != 8 {
			return nil, fmt.Errorf("wal: btree checkpoint blob is %d bytes, want 8", len(blob))
		}
		root := storage.PageID(binary.LittleEndian.Uint64(blob))
		t, err := btree.RecoverAt(pool, cfg, root, func(id storage.PageID) bool { return keep[id] })
		if err != nil {
			return nil, err
		}
		return btreeInner{t}, nil
	})
}

// NewLSM builds a fresh write-ahead-logged LSM-tree on pool and seals its
// initial checkpoint. The manifest is forced on (it is the LSM's barrier);
// snapshot versions are unsupported under the log.
func NewLSM(pool *storage.BufferPool, cfg lsm.Config, wcfg Config) (*Logged, error) {
	if cfg.Versions > 0 {
		return nil, fmt.Errorf("wal: lsm snapshot versions are unsupported under the write-ahead log")
	}
	cfg.Manifest = true
	return open(pool, &lsmInner{Tree: lsm.New(pool, cfg)}, wcfg)
}

// RecoverLSM rebuilds a write-ahead-logged LSM-tree from the device image
// under pool: newest checkpoint record, lsm.RecoverKeep (the manifest finds
// its own newest generation), log replay into the overlay.
func RecoverLSM(pool *storage.BufferPool, cfg lsm.Config, wcfg Config) (*Logged, error) {
	if cfg.Versions > 0 {
		return nil, fmt.Errorf("wal: lsm snapshot versions are unsupported under the write-ahead log")
	}
	cfg.Manifest = true
	return reopen(pool, wcfg, func(keep map[storage.PageID]bool, blob []byte) (inner, error) {
		if len(blob) != 0 {
			return nil, fmt.Errorf("wal: lsm checkpoint blob is %d bytes, want 0", len(blob))
		}
		t, err := lsm.RecoverKeep(pool, cfg, func(id storage.PageID) bool { return keep[id] })
		if err != nil {
			return nil, err
		}
		return &lsmInner{Tree: t}, nil
	})
}
