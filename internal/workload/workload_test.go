package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Mix: Balanced, InitialLen: 100}
	a := New(cfg)
	b := New(cfg)
	ia, ib := a.InitialRecords(), b.InitialRecords()
	if len(ia) != len(ib) || len(ia) != 100 {
		t.Fatalf("initial lengths %d/%d", len(ia), len(ib))
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatalf("initial record %d differs", i)
		}
	}
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("op %d differs: %+v vs %+v", i, oa, ob)
		}
	}
}

func TestInitialKeysUnique(t *testing.T) {
	g := New(Config{Seed: 1, Mix: Balanced, InitialLen: 5000})
	seen := map[uint64]bool{}
	for _, op := range g.InitialRecords() {
		if op.Kind != OpInsert {
			t.Fatalf("initial op kind %v", op.Kind)
		}
		if seen[op.Key] {
			t.Fatalf("duplicate initial key %d", op.Key)
		}
		seen[op.Key] = true
	}
}

func TestMixFractions(t *testing.T) {
	g := New(Config{Seed: 3, Mix: Mix{Get: 0.5, Insert: 0.5}, InitialLen: 100})
	g.InitialRecords()
	counts := map[OpKind]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	if counts[OpUpdate] != 0 || counts[OpDelete] != 0 || counts[OpScan] != 0 {
		t.Fatalf("unexpected kinds: %v", counts)
	}
	getFrac := float64(counts[OpGet]) / n
	if getFrac < 0.45 || getFrac > 0.55 {
		t.Fatalf("get fraction %v", getFrac)
	}
}

// TestLiveSetConsistency: updates and deletes only target keys previously
// inserted and not yet deleted; inserts are always fresh.
func TestLiveSetConsistency(t *testing.T) {
	g := New(Config{Seed: 7, Mix: Balanced, InitialLen: 200})
	live := map[uint64]bool{}
	for _, op := range g.InitialRecords() {
		live[op.Key] = true
	}
	for i := 0; i < 30000; i++ {
		op := g.Next()
		switch op.Kind {
		case OpInsert:
			if live[op.Key] {
				t.Fatalf("op %d: insert of live key %d", i, op.Key)
			}
			live[op.Key] = true
		case OpUpdate:
			if !live[op.Key] {
				t.Fatalf("op %d: update of dead key %d", i, op.Key)
			}
		case OpDelete:
			if !live[op.Key] {
				t.Fatalf("op %d: delete of dead key %d", i, op.Key)
			}
			delete(live, op.Key)
		case OpScan:
			if op.Hi < op.Key {
				t.Fatalf("op %d: inverted range", i)
			}
		}
	}
	if g.Live() != len(live) {
		t.Fatalf("generator live %d, model %d", g.Live(), len(live))
	}
}

func TestScatteredKeysStayInDomain(t *testing.T) {
	f := func(seed int64) bool {
		g := New(Config{Seed: seed, Mix: Mix{Insert: 1}})
		for i := 0; i < 200; i++ {
			if g.Next().Key >= keyDomain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyMixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty mix did not panic")
		}
	}()
	New(Config{Seed: 1})
}

func TestFallbackToInsertWhenEmpty(t *testing.T) {
	// No initial records: gets/updates/deletes must degrade to inserts
	// rather than emit ops on nonexistent keys.
	g := New(Config{Seed: 2, Mix: Mix{Update: 1}})
	op := g.Next()
	if op.Kind != OpInsert {
		t.Fatalf("first op on empty store: %v", op.Kind)
	}
}

func TestRegisterLive(t *testing.T) {
	g := New(Config{Seed: 2, Mix: Mix{Update: 1}})
	g.RegisterLive(77)
	g.RegisterLive(77) // idempotent
	if g.Live() != 1 {
		t.Fatalf("live %d", g.Live())
	}
	op := g.Next()
	if op.Kind != OpUpdate || op.Key != 77 {
		t.Fatalf("op %+v", op)
	}
}

// The numeric values are load-bearing, not only the names: they are the index
// of Fingerprint.Ops and WorkloadSnapshot.Cum (the /debug/workload JSON lists
// are in this order), the order the rum_workload_*{op=...} series are emitted
// in (the rumserve scrape goldens), and one byte wide so serve.Request stays
// 24 bytes. String is the label those series carry.
func TestOpKindString(t *testing.T) {
	names := [NumOps]string{OpGet: "get", OpInsert: "insert", OpUpdate: "update", OpDelete: "delete", OpScan: "scan"}
	for k, want := range names {
		if got := OpKind(k).String(); got != want {
			t.Errorf("OpKind(%d) = %q, want %q", k, got, want)
		}
	}
	if OpGet != 0 || OpInsert != 1 || OpUpdate != 2 || OpDelete != 3 || OpScan != 4 || NumOps != 5 {
		t.Errorf("kinds renumbered: get=%d insert=%d update=%d delete=%d scan=%d of %d",
			OpGet, OpInsert, OpUpdate, OpDelete, OpScan, NumOps)
	}
	if unsafe.Sizeof(OpGet) != 1 {
		t.Errorf("OpKind is %d bytes, want 1", unsafe.Sizeof(OpGet))
	}
	if got := OpKind(9).String(); got != "op(9)" {
		t.Errorf("out-of-range kind prints %q", got)
	}
}

// The enum is in serving order, but the generator still cuts its one uniform
// draw in the order get, scan, insert, update, delete (drawOrder): every
// published figure replays these streams. The digest was computed at the
// commit before the reorder, over the 64 preload inserts and the first 256
// operations; kinds enter it as letters so it does not depend on their values.
func TestStreamPinnedAcrossEnumReorder(t *testing.T) {
	letter := [NumOps]byte{OpGet: 'g', OpScan: 's', OpInsert: 'i', OpUpdate: 'u', OpDelete: 'd'}
	g := New(Config{Seed: 1, Mix: Balanced, InitialLen: 64})
	h := fnv.New64a()
	var buf [25]byte
	feed := func(op Op) {
		buf[0] = letter[op.Kind]
		binary.LittleEndian.PutUint64(buf[1:], op.Key)
		binary.LittleEndian.PutUint64(buf[9:], op.Hi)
		binary.LittleEndian.PutUint64(buf[17:], op.Value)
		h.Write(buf[:])
	}
	for _, op := range g.InitialRecords() {
		feed(op)
	}
	for i := 0; i < 256; i++ {
		feed(g.Next())
	}
	if got, want := h.Sum64(), uint64(0xa622c4237feb78eb); got != want {
		t.Fatalf("stream digest %#x, want %#x: the generator's draw order moved", got, want)
	}
}

func TestSplitmixIsInjectiveOnPrefix(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100000; i++ {
		v := splitmix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}

// Validate is what stands between a command line and New's CDF: it rejects
// what New would silently bend (a negative or NaN weight, a sum that is not
// 1) and names the fraction by its kind.
func TestMixValidate(t *testing.T) {
	for _, preset := range []Mix{ReadHeavy, WriteHeavy, ScanHeavy, Balanced, LookupOnly} {
		if err := preset.Validate(); err != nil {
			t.Errorf("preset %+v: %v", preset, err)
		}
	}
	cases := []struct {
		name string
		mix  Mix
		want string // substring of the error; "" = valid
	}{
		{"round-off", Mix{Get: 0.33, Insert: 0.33, Update: 0.34}, ""},
		{"all five", Mix{Get: 0.2, Scan: 0.2, Insert: 0.2, Update: 0.2, Delete: 0.2}, ""},
		{"negative get", Mix{Get: -0.5, Insert: 1.5}, "the get fraction"},
		{"negative scan", Mix{Get: 1.1, Scan: -0.1}, "the scan fraction"},
		{"NaN insert", Mix{Get: 0.5, Insert: math.NaN()}, "the insert fraction"},
		{"NaN update", Mix{Get: 1, Update: math.NaN()}, "the update fraction"},
		{"negative delete", Mix{Get: 1, Delete: -1e-9}, "the delete fraction"},
		{"sum below one", Mix{Get: 0.2, Insert: 0.1}, "sum to 1, got 0.3"},
		{"sum above one", Mix{Get: 0.9, Insert: 0.9}, "sum to 1, got 1.8"},
		{"infinite", Mix{Get: math.Inf(1)}, "sum to 1"},
		{"empty", Mix{}, "sum to 1, got 0"},
	}
	for _, tc := range cases {
		err := tc.mix.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %+v rejected: %v", tc.name, tc.mix, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: %+v: error %v, want one naming %q", tc.name, tc.mix, err, tc.want)
		}
	}
}
