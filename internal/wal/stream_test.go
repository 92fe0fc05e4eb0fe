package wal

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/lsm"
	"repro/internal/storage"
)

// The in-package tests share one seeded mutation stream and one table of
// logged structures, so the byte-identity pin, the base-bit soundness test
// and the allocation gates all drive the same shapes.

// structure is one logged structure under test.
type structure struct {
	name    string
	open    func(pool *storage.BufferPool, cfg Config) (*Logged, error)
	recover func(pool *storage.BufferPool, cfg Config) (*Logged, error)
}

func lsmStructure(name string, cfg lsm.Config) structure {
	return structure{
		name: name,
		open: func(pool *storage.BufferPool, wcfg Config) (*Logged, error) {
			return NewLSM(pool, cfg, wcfg)
		},
		recover: func(pool *storage.BufferPool, wcfg Config) (*Logged, error) {
			return RecoverLSM(pool, cfg, wcfg)
		},
	}
}

// structures returns the B+-tree and the LSM under both merge policies. The
// memtable is small next to the checkpoint intervals the tests use, so one
// checkpoint spans several level-0 runs, a short tail, and compactions.
func structures() []structure {
	return []structure{
		{
			name: "btree",
			open: func(pool *storage.BufferPool, wcfg Config) (*Logged, error) {
				return NewBTree(pool, btree.Config{}, wcfg)
			},
			recover: func(pool *storage.BufferPool, wcfg Config) (*Logged, error) {
				return RecoverBTree(pool, btree.Config{}, wcfg)
			},
		},
		lsmStructure("lsm-level", lsm.Config{MemtableRecords: 192, SizeRatio: 4}),
		lsmStructure("lsm-tier", lsm.Config{MemtableRecords: 192, SizeRatio: 4, Tiering: true}),
	}
}

// opStream is a seeded stream of mutations checked against a map model:
// fresh inserts, duplicate inserts, updates, deletes, re-deletes of a dead
// key and re-inserts of one — the last two are what puts tombstones over
// keys the inner structure never held, and live values over keys it holds
// only as deleted, inside a single checkpoint interval.
type opStream struct {
	rng       *rand.Rand
	noDeletes bool // deletes become updates: a stream that leaves no tombstones
	model     map[core.Key]core.Value
	live      []core.Key // keys of model, in insertion order with swap-removal
	dead      []core.Key // recently deleted keys (bounded)
}

func newOpStream(seed int64) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed)), model: make(map[core.Key]core.Value)}
}

func (s *opStream) freshKey() core.Key {
	for {
		if k := core.Key(s.rng.Uint64() >> 1); k != 0 {
			if _, ok := s.model[k]; !ok {
				return k
			}
		}
	}
}

func (s *opStream) insert(t *testing.T, l *Logged, k core.Key) {
	t.Helper()
	v := core.Value(s.rng.Uint64() >> 1)
	if err := l.Insert(k, v); err != nil {
		t.Fatalf("insert of absent key %d: %v", k, err)
	}
	s.model[k] = v
	s.live = append(s.live, k)
}

// step applies one random mutation to l and checks its outcome.
func (s *opStream) step(t *testing.T, l *Logged) {
	t.Helper()
	p := s.rng.Intn(100)
	switch {
	case p < 40 || len(s.live) < 8:
		s.insert(t, l, s.freshKey())
	case p < 45:
		k := s.live[s.rng.Intn(len(s.live))]
		if err := l.Insert(k, 1); err != core.ErrKeyExists {
			t.Fatalf("duplicate insert of %d: got %v, want ErrKeyExists", k, err)
		}
	case p < 68 || s.noDeletes && p < 85:
		k := s.live[s.rng.Intn(len(s.live))]
		v := core.Value(s.rng.Uint64() >> 1)
		if !l.Update(k, v) {
			t.Fatalf("update of live key %d failed", k)
		}
		s.model[k] = v
	case p < 85:
		i := s.rng.Intn(len(s.live))
		k := s.live[i]
		if !l.Delete(k) {
			t.Fatalf("delete of live key %d failed", k)
		}
		delete(s.model, k)
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		if len(s.dead) < 64 {
			s.dead = append(s.dead, k)
		} else {
			s.dead[s.rng.Intn(len(s.dead))] = k
		}
	case p < 90 && len(s.dead) > 0:
		k := s.dead[s.rng.Intn(len(s.dead))]
		if _, ok := s.model[k]; !ok && l.Delete(k) {
			t.Fatalf("delete of dead key %d succeeded", k)
		}
	case len(s.dead) > 0:
		k := s.dead[s.rng.Intn(len(s.dead))]
		if _, ok := s.model[k]; !ok {
			s.insert(t, l, k)
		}
	default:
		s.insert(t, l, s.freshKey())
	}
}

// check holds l to the model: Len, every live key, and one full scan.
func (s *opStream) check(t *testing.T, l *Logged) {
	t.Helper()
	if l.Len() != len(s.model) {
		t.Fatalf("Len = %d, model has %d", l.Len(), len(s.model))
	}
	n := l.RangeScan(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		if want, ok := s.model[k]; !ok || want != v {
			t.Fatalf("scan served %d=%d, model says %d,%v", k, v, want, ok)
		}
		return true
	})
	if n != len(s.model) {
		t.Fatalf("scan emitted %d records, model has %d", n, len(s.model))
	}
	for _, k := range s.dead {
		if _, ok := s.model[k]; ok {
			continue
		}
		if _, ok := l.Get(k); ok {
			t.Fatalf("deleted key %d served", k)
		}
	}
}
