// Package workload generates deterministic operation streams — point
// queries, range queries, inserts, updates, and deletes over integer keys —
// matching the workload model of Section 2 of the paper. Generators are
// seeded and reproducible, so every experiment replays the same stream
// against every access method.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// OpKind enumerates the operation types of the paper's workload model. It is
// the repository's one op vocabulary: the generators emit it, the serving
// layer executes it (serve.Op is an alias) and the fingerprinter counts by it,
// so the numeric values are the order of every per-kind array, JSON list and
// metric label set — get, insert, update, delete, scan — and stay one byte.
type OpKind uint8

const (
	// OpGet is a point query.
	OpGet OpKind = iota
	// OpInsert adds a fresh key.
	OpInsert
	// OpUpdate modifies an existing key's value.
	OpUpdate
	// OpDelete removes an existing key.
	OpDelete
	// OpScan is a range query.
	OpScan
	// NumOps sizes per-kind arrays.
	NumOps
)

var opNames = [NumOps]string{"get", "insert", "update", "delete", "scan"}

// String names the operation.
func (k OpKind) String() string {
	if k < NumOps {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one generated operation. Hi is only meaningful for OpScan.
type Op struct {
	Kind  OpKind
	Key   uint64
	Hi    uint64
	Value uint64
}

// Mix gives the relative weight of each operation kind, in OpKind order;
// weights need not sum to one.
type Mix struct {
	Get    float64
	Insert float64
	Update float64
	Delete float64
	Scan   float64
}

// fracs returns the weights indexed by kind.
func (m Mix) fracs() [NumOps]float64 {
	return [NumOps]float64{OpGet: m.Get, OpInsert: m.Insert, OpUpdate: m.Update, OpDelete: m.Delete, OpScan: m.Scan}
}

// mixEpsilon is Validate's tolerance on the fraction sum: wide enough for
// decimal round-off (0.33+0.33+0.34), far tighter than any real
// misconfiguration.
const mixEpsilon = 1e-6

// Validate holds a mix that came from outside (rumviz's and rumwizard's
// -get/-range/-insert/-update/-delete flags) to what its author meant:
// every fraction non-negative, all of them summing to 1. New would build a
// non-monotone CDF from a negative or NaN weight and silently renormalise any
// other sum. The error names the offending fraction by its kind.
func (m Mix) Validate() error {
	sum := 0.0
	for k, v := range m.fracs() {
		if !(v >= 0) { // NaN fails every comparison, so test for inside
			return fmt.Errorf("the %s fraction must be non-negative, got %v", OpKind(k), v)
		}
		sum += v
	}
	if !(math.Abs(sum-1) <= mixEpsilon) {
		return fmt.Errorf("operation fractions must sum to 1, got %g (%s)", sum, strings.Join(opNames[:], " "))
	}
	return nil
}

// Canonical presets used across the experiments.
var (
	// ReadHeavy is 95% point reads, 5% updates (YCSB-B-like).
	ReadHeavy = Mix{Get: 0.95, Update: 0.05}
	// WriteHeavy is 10% reads, 60% inserts, 30% updates — the churn that
	// motivates write-optimized differential structures.
	WriteHeavy = Mix{Get: 0.10, Insert: 0.60, Update: 0.30}
	// ScanHeavy is 70% range scans, 25% point reads, 5% inserts — the
	// analytics pattern that motivates sparse indexes.
	ScanHeavy = Mix{Get: 0.25, Scan: 0.70, Insert: 0.05}
	// Balanced is the canonical mixed workload used to place structures in
	// the RUM triangle (Figure 1): 45% reads, 10% ranges, 20% inserts,
	// 20% updates, 5% deletes.
	Balanced = Mix{Get: 0.45, Scan: 0.10, Insert: 0.20, Update: 0.20, Delete: 0.05}
	// LookupOnly exercises pure point reads.
	LookupOnly = Mix{Get: 1}
)

// Config describes a generated workload.
type Config struct {
	Seed       int64
	Mix        Mix
	RangeLen   uint64 // key-span of a range query (result size for dense keys)
	InitialLen int    // records preloaded before the stream starts
}

// keyDomain bounds the generated keys: unique keys scattered over 40 bits.
const keyDomain = 1 << 40

// Generator produces a deterministic operation stream and tracks the live
// key set so updates and deletes always target existing keys and inserts
// always use fresh keys.
type Generator struct {
	cfg     Config
	rng     *rand.Rand
	live    []uint64
	pos     map[uint64]int
	counter uint64
	cdf     [NumOps]float64 // cumulative weights, in drawOrder
}

// drawOrder is the order in which Next's one uniform draw is cut into kinds.
// It predates the serving order of the enum and stays as it was: every
// published figure replays these streams, so the cut points may not move.
var drawOrder = [NumOps]OpKind{OpGet, OpScan, OpInsert, OpUpdate, OpDelete}

// New creates a generator for cfg. Call Preload (or replay InitialRecords)
// to populate the store it will drive.
func New(cfg Config) *Generator {
	if cfg.RangeLen == 0 {
		cfg.RangeLen = 128
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{cfg: cfg, rng: rng, pos: make(map[uint64]int)}
	fracs := cfg.Mix.fracs()
	total := 0.0
	for _, k := range drawOrder {
		total += fracs[k]
	}
	if total <= 0 {
		panic("workload: empty mix")
	}
	acc := 0.0
	for i, k := range drawOrder {
		acc += fracs[k] / total
		g.cdf[i] = acc
	}
	return g
}

// splitmix64 is a bijective scramble used to generate unique scattered keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// freshKey returns a key never handed out before.
func (g *Generator) freshKey() uint64 {
	k := g.counter
	g.counter++
	return splitmix64(k) % keyDomain
}

// Live returns the number of keys currently live.
func (g *Generator) Live() int { return len(g.live) }

// LiveKeys returns a copy of the live key set (test support).
func (g *Generator) LiveKeys() []uint64 {
	out := make([]uint64, len(g.live))
	copy(out, g.live)
	return out
}

// InitialRecords returns cfg.InitialLen fresh records to preload the store
// with, registering them as live. It must be called exactly once, before Next.
func (g *Generator) InitialRecords() []Op {
	ops := make([]Op, 0, g.cfg.InitialLen)
	for i := 0; i < g.cfg.InitialLen; i++ {
		k := g.freshKey()
		g.addLive(k)
		ops = append(ops, Op{Kind: OpInsert, Key: k, Value: g.rng.Uint64()})
	}
	return ops
}

// RegisterLive adds k to the live key set without emitting an operation —
// used when a generator is attached to a store that already holds data.
func (g *Generator) RegisterLive(k uint64) {
	if _, ok := g.pos[k]; ok {
		return
	}
	g.addLive(k)
}

func (g *Generator) addLive(k uint64) {
	g.pos[k] = len(g.live)
	g.live = append(g.live, k)
}

func (g *Generator) removeLive(k uint64) {
	i, ok := g.pos[k]
	if !ok {
		return
	}
	last := len(g.live) - 1
	moved := g.live[last]
	g.live[i] = moved
	g.pos[moved] = i
	g.live = g.live[:last]
	delete(g.pos, k)
}

// pickLive chooses an existing key uniformly. It reports false when no keys
// are live.
func (g *Generator) pickLive() (uint64, bool) {
	n := len(g.live)
	if n == 0 {
		return 0, false
	}
	return g.live[g.rng.Intn(n)], true
}

// Next returns the next operation of the stream.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	kind := OpDelete
	for i, k := range drawOrder {
		if r <= g.cdf[i] {
			kind = k
			break
		}
	}
	switch kind {
	case OpGet:
		if k, ok := g.pickLive(); ok {
			return Op{Kind: OpGet, Key: k}
		}
		return g.insertOp()
	case OpScan:
		if k, ok := g.pickLive(); ok {
			hi := k + g.cfg.RangeLen
			if hi < k { // overflow
				hi = ^uint64(0)
			}
			return Op{Kind: OpScan, Key: k, Hi: hi}
		}
		return g.insertOp()
	case OpInsert:
		return g.insertOp()
	case OpUpdate:
		if k, ok := g.pickLive(); ok {
			return Op{Kind: OpUpdate, Key: k, Value: g.rng.Uint64()}
		}
		return g.insertOp()
	default: // OpDelete
		if k, ok := g.pickLive(); ok {
			g.removeLive(k)
			return Op{Kind: OpDelete, Key: k}
		}
		return g.insertOp()
	}
}

func (g *Generator) insertOp() Op {
	k := g.freshKey()
	g.addLive(k)
	return Op{Kind: OpInsert, Key: k, Value: g.rng.Uint64()}
}
