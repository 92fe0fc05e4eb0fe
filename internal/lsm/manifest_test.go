package lsm

import (
	"testing"

	"repro/internal/storage"
)

func crashStack(t *testing.T, cfg Config) (*storage.Device, *storage.BufferPool, *Tree) {
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
