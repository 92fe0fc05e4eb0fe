package lsm

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/storage"
)

func crashStack(t testing.TB, cfg Config) (*storage.Device, *storage.BufferPool, *Tree) {
	t.Helper()
	dev := storage.NewDevice(512, storage.SSD, nil)
	pool := storage.NewBufferPool(dev, 32)
	return dev, pool, New(pool, cfg)
}

var manifestCfg = Config{MemtableRecords: 64, SizeRatio: 4, Manifest: true}

// TestManifestRecoverAfterFlush: every record covered by the last committed
// manifest survives a crash, point reads and scans intact.
func TestManifestRecoverAfterFlush(t *testing.T) {
	dev, pool, tr := crashStack(t, manifestCfg)
	const n = 1000
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if tr.Stats().ManifestWrites == 0 {
		t.Fatal("Flush committed no manifest")
	}
	pool.Crash()

	tr2, err := Recover(storage.NewBufferPool(dev, 32), manifestCfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if tr2.Len() != n {
		t.Fatalf("recovered Len=%d want %d", tr2.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tr2.Get(k)
		if !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	// The recovered tree keeps working: new inserts, flushes, compactions.
	for k := uint64(n); k < n+500; k++ {
		if err := tr2.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr2.Flush()
	if v, ok := tr2.Get(n + 100); !ok || v != n+100 {
		t.Fatalf("post-recovery Get = %d,%v", v, ok)
	}
}

// TestManifestRecoverDropsUncheckpointed: records acknowledged after the
// last commit are gone after recovery — lost, not garbled.
func TestManifestRecoverDropsUncheckpointed(t *testing.T) {
	dev, pool, tr := crashStack(t, manifestCfg)
	for k := uint64(0); k < 300; k++ {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush() // checkpoint covers [0,300)
	for k := uint64(300); k < 400; k++ {
		if err := tr.Insert(k, 2); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: [300,400) lives in the memtable and dies with the pool.
	pool.Crash()

	tr2, err := Recover(storage.NewBufferPool(dev, 32), manifestCfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for k := uint64(0); k < 300; k++ {
		if v, ok := tr2.Get(k); !ok || v != 1 {
			t.Fatalf("checkpointed Get(%d) = %d,%v", k, v, ok)
		}
	}
	for k := uint64(300); k < 400; k++ {
		if _, ok := tr2.Get(k); ok {
			t.Fatalf("uncheckpointed key %d survived without a flush", k)
		}
	}
}

// TestManifestRecoverPicksNewestGeneration: with several committed
// generations on the device, recovery adopts the newest complete one.
func TestManifestRecoverPicksNewestGeneration(t *testing.T) {
	dev, pool, tr := crashStack(t, manifestCfg)
	for round := uint64(0); round < 3; round++ {
		for k := round * 200; k < (round+1)*200; k++ {
			if err := tr.Insert(k, round+1); err != nil {
				t.Fatal(err)
			}
		}
		tr.Flush()
	}
	if tr.gen < 3 {
		t.Fatalf("expected ≥3 manifest generations, got %d", tr.gen)
	}
	pool.Crash()
	tr2, err := Recover(storage.NewBufferPool(dev, 32), manifestCfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if tr2.Len() != 600 {
		t.Fatalf("Len=%d want 600", tr2.Len())
	}
	if v, ok := tr2.Get(550); !ok || v != 3 {
		t.Fatalf("Get(550) = %d,%v, want 3", v, ok)
	}
	if tr2.gen != tr.gen {
		t.Fatalf("recovered generation %d, committed %d", tr2.gen, tr.gen)
	}
}

// TestManifestRecoverCorruptPageFailsOrFallsBack: flipping a byte in the
// newest manifest breaks its checksum; recovery must not trust it. With no
// older complete generation surviving, it fails loudly.
func TestManifestRecoverCorruptPageFailsOrFallsBack(t *testing.T) {
	dev, pool, tr := crashStack(t, manifestCfg)
	for k := uint64(0); k < 200; k++ {
		if err := tr.Insert(k, 1); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if len(tr.manifest) == 0 {
		t.Fatal("no manifest chain")
	}
	id := tr.manifest[0]
	pool.Crash()
	page, err := dev.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), page...)
	tampered[manifestHeader] ^= 0xFF // corrupt the payload under the CRC
	if err := dev.Write(id, tampered); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(storage.NewBufferPool(dev, 32), manifestCfg); err == nil {
		t.Fatal("Recover trusted a checksum-broken manifest")
	}
}

// TestManifestQuarantine: pages freed by compaction stay allocated until the
// next manifest commit, so a committed manifest never references a reused
// page. The commit then releases them.
func TestManifestQuarantine(t *testing.T) {
	_, _, tr := crashStack(t, manifestCfg)
	for k := uint64(0); k < 2000; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats().Compactions == 0 {
		t.Fatal("workload produced no compactions")
	}
	if len(tr.pendingFree) == 0 {
		t.Fatal("compaction quarantined no pages")
	}
	tr.Flush()
	if len(tr.pendingFree) != 0 {
		t.Fatalf("%d pages still quarantined after commit", len(tr.pendingFree))
	}
}

// TestManifestRecoverEmptyDevice: no live pages means a fresh, empty tree —
// the state before the first flush is legitimately empty.
func TestManifestRecoverEmptyDevice(t *testing.T) {
	dev := storage.NewDevice(512, storage.SSD, nil)
	tr, err := Recover(storage.NewBufferPool(dev, 32), manifestCfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

// TestManifestOffByDefault: without Config.Manifest, Flush writes no
// manifest pages — Table-1 accounting stays untouched by the chaos layer.
func TestManifestOffByDefault(t *testing.T) {
	_, _, tr := crashStack(t, Config{MemtableRecords: 64})
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if tr.Stats().ManifestWrites != 0 || len(tr.manifest) != 0 {
		t.Fatalf("manifest written without opt-in: %+v", tr.Stats())
	}
}

// TestManifestWithVersionsRejected: epoch reclamation frees compacted-away
// pages without the manifest quarantine, so the pair would silently void the
// recovery contract. Construction refuses it loudly.
func TestManifestWithVersionsRejected(t *testing.T) {
	cfg := manifestCfg
	cfg.Versions = 2
	pool := storage.NewBufferPool(storage.NewDevice(512, storage.SSD, nil), 32)
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted Manifest + Versions")
		}
	}()
	New(pool, cfg)
}

// checkpointedPayload builds a tiered, filtered tree of several levels on its
// own device, checkpoints it, and returns the device and the manifest payload.
func checkpointedPayload(t testing.TB, cfg Config) (*storage.Device, []byte) {
	t.Helper()
	dev, _, tr := crashStack(t, cfg)
	for k := uint64(0); k < 1400; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	tr.Flush()
	if tr.Depth() < 2 || tr.Runs() < 3 {
		t.Fatalf("fixture too small: depth %d, %d runs", tr.Depth(), tr.Runs())
	}
	return dev, tr.encodeManifest()
}

var decodeCfg = Config{MemtableRecords: 64, SizeRatio: 4, Tiering: true, BloomBitsPerKey: 8, Manifest: true}

// TestManifestDamagedCountsFail: counts that pass the page checksum but
// cannot be true are errors, not allocations — a level count beyond what the
// payload could spell, a record count beyond what the run's pages could hold.
func TestManifestDamagedCountsFail(t *testing.T) {
	dev, payload := checkpointedPayload(t, decodeCfg)
	pool := storage.NewBufferPool(dev, 8)

	levels := bytes.Clone(payload)
	binary.LittleEndian.PutUint32(levels[8:], ^uint32(0))
	if err := New(pool, decodeCfg).decodeManifest(levels, map[storage.PageID]bool{}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("level count 2^32-1: got %v, want a truncation error", err)
	}

	// The first run's record count sits after the level count, level 0's run
	// count and the run's two keys.
	records := bytes.Clone(payload)
	binary.LittleEndian.PutUint32(records[8+4+4+16:], ^uint32(0)>>1)
	tr := New(pool, decodeCfg)
	if err := tr.decodeManifest(records, map[storage.PageID]bool{}); err != nil {
		t.Fatal(err)
	}
	if len(tr.levels[0]) == 0 {
		t.Fatal("fixture has no level-0 run")
	}
	if err := tr.rebuildRun(tr.levels[0][0]); err == nil || !strings.Contains(err.Error(), "impossible record count") {
		t.Fatalf("record count 2^31-1: got %v, want an impossible-count error", err)
	}
}

// FuzzDecodeManifest feeds decodeManifest arbitrary payloads — the chain's
// checksums vouch for the bytes, not for what they say. A payload it accepts
// re-encodes to itself, and rebuilding its runs against a real device (the
// seed's image, so some page ids resolve) fails cleanly or succeeds.
func FuzzDecodeManifest(f *testing.F) {
	dev, payload := checkpointedPayload(f, decodeCfg)
	f.Add(payload)
	f.Add(payload[:len(payload)-3])
	f.Add(New(storage.NewBufferPool(dev, 8), decodeCfg).encodeManifest())
	f.Fuzz(func(t *testing.T, payload []byte) {
		// An image per input: each runs on its own goroutine, and a device has one owner.
		dev, _ := checkpointedPayload(t, decodeCfg)
		tr := New(storage.NewBufferPool(dev, 8), decodeCfg)
		if err := tr.decodeManifest(payload, map[storage.PageID]bool{}); err != nil {
			return
		}
		if again := tr.encodeManifest(); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n in  %x\n out %x", payload, again)
		}
		for _, lv := range tr.levels {
			for _, r := range lv {
				_ = tr.rebuildRun(r) // errors are the expected outcome; panics are the finding
			}
		}
	})
}
