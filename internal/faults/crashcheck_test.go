package faults_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hashindex"
	"repro/internal/lsm"
	"repro/internal/pbt"
	"repro/internal/storage"
	"repro/internal/wal"
)

// crashRow is one subject of the contract table; perOpCommit marks the
// write-ahead-logged rows that commit every op before acknowledging it.
type crashRow struct {
	sub         faults.Subject
	perOpCommit bool
}

// crashRows is the contract table: every method with a crash story, each
// under the contract it declares. Small memtables and a short checkpoint
// interval force run writes, compactions and segment recycling inside the
// checker's op budget.
func crashRows() []crashRow {
	subject := func(name string, d faults.Durability, open, reopen func(*storage.BufferPool) (core.AccessMethod, error)) faults.Subject {
		return faults.Subject{Name: name, Open: open, Reopen: reopen, Durability: d}
	}
	btreeRow := func(name string, cfg btree.Config) crashRow {
		return crashRow{sub: subject(name, faults.Lossy,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return btree.New(p, cfg) },
			func(p *storage.BufferPool) (core.AccessMethod, error) { return btree.Recover(p, cfg) })}
	}
	lsmRow := func(name string, tiering bool) crashRow {
		cfg := lsm.Config{MemtableRecords: 64, Manifest: true, Tiering: tiering}
		return crashRow{sub: subject(name, faults.DurableToFlush,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return lsm.New(p, cfg), nil },
			func(p *storage.BufferPool) (core.AccessMethod, error) { return lsm.Recover(p, cfg) })}
	}
	walBTreeRow := func(batch int) crashRow {
		wcfg := wal.Config{CommitBatch: batch}
		return crashRow{perOpCommit: batch == 1, sub: subject(fmt.Sprintf("wal-btree/b=%d", batch), faults.DurableToCommit,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewBTree(p, btree.Config{}, wcfg) },
			func(p *storage.BufferPool) (core.AccessMethod, error) {
				return wal.RecoverBTree(p, btree.Config{}, wcfg)
			})}
	}
	walLSMRow := func(name string, lcfg lsm.Config, wcfg wal.Config) crashRow {
		return crashRow{perOpCommit: wcfg.CommitBatch == 1, sub: subject(name, faults.DurableToCommit,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.NewLSM(p, lcfg, wcfg) },
			func(p *storage.BufferPool) (core.AccessMethod, error) { return wal.RecoverLSM(p, lcfg, wcfg) })}
	}
	return []crashRow{
		btreeRow("btree", btree.Config{}),
		btreeRow("btree/versions=2", btree.Config{Versions: 2}),
		// No persisted directory: declared fully lossy, no recovery path.
		{sub: subject("hash", faults.Lossy,
			func(p *storage.BufferPool) (core.AccessMethod, error) { return hashindex.New(p, hashindex.Config{}) }, nil)},
		// The partition directory (active, sealed, main) lives in memory
		// only, so there is no sound way to tell the partitions' page images
		// apart after a crash: no recovery path.
		{sub: subject("pbt", faults.Lossy,
			func(p *storage.BufferPool) (core.AccessMethod, error) {
				return pbt.New(p, pbt.Config{PartitionRecords: 64})
			}, nil)},
		lsmRow("lsm-level", false),
		lsmRow("lsm-tier", true),
		walBTreeRow(1),
		walBTreeRow(8),
		walLSMRow("wal-lsm/b=1", lsm.Config{MemtableRecords: 64}, wal.Config{CommitBatch: 1}),
		walLSMRow("wal-lsm/b=8", lsm.Config{MemtableRecords: 64}, wal.Config{CommitBatch: 8}),
		walLSMRow("wal-lsm-tier/ckpt=64", lsm.Config{MemtableRecords: 64, Tiering: true},
			wal.Config{CommitBatch: 1, CheckpointEvery: 64}),
	}
}

// repro bisects Ops down to the smallest trial that still violates with the
// crash pinned at the failing write — the checkpoint cadence is fixed, so a
// shorter trial is a prefix of the longer one — and returns one line that
// reproduces it.
func repro(sub faults.Subject, cfg faults.CheckConfig, res faults.CheckResult) string {
	cfg.CrashAtWrite = res.CrashWrite
	if cfg.CrashAtWrite == 0 {
		cfg.CrashAtWrite = 1 << 62 // violated before any crash: never crash
	}
	lo, hi := 0, cfg.Ops // hi violates
	for hi-lo > 1 {
		c := cfg
		c.Ops = (lo + hi) / 2
		if faults.CheckCrash(c, sub).Verdict == faults.Violated {
			hi = c.Ops
		} else {
			lo = c.Ops
		}
	}
	cfg.Ops = hi
	return fmt.Sprintf("repro: %s Seed=%d Ops=%d CrashAtWrite=%d: %s", sub.Name, cfg.Seed, cfg.Ops, cfg.CrashAtWrite, faults.CheckCrash(cfg, sub))
}

// checkContracts holds rows of the contract table to their declared
// contracts across seeds and two op budgets: every verdict acceptable, the
// crash fires on every seed, every row with a recovery path recovers at
// least once, and a row that commits every op loses nothing it acknowledged.
// The 1500-op budget is what reaches the tiered LSM's deeper merges, where a
// dropped tombstone would resurrect a deleted key.
func checkContracts(t *testing.T, rows []crashRow) {
	t.Helper()
	seeds := 100
	if testing.Short() {
		seeds = 8
	}
	for _, row := range rows {
		for _, ops := range []int{400, 1500} {
			t.Run(fmt.Sprintf("%s/ops=%d", row.sub.Name, ops), func(t *testing.T) {
				recovered := 0
				for seed := 1; seed <= seeds; seed++ {
					cfg := faults.CheckConfig{Seed: uint64(seed), Ops: ops}
					res := faults.CheckCrash(cfg, row.sub)
					switch {
					case !res.Verdict.Acceptable():
						t.Fatalf("seed %d: %s\n%s", seed, res, repro(row.sub, cfg, res))
					case res.Verdict == faults.NoCrash:
						t.Fatalf("seed %d: crash never fired — calibration should guarantee it", seed)
					case row.sub.Reopen == nil && res.Verdict != faults.NoRecovery:
						t.Fatalf("seed %d: no recovery path, yet %s", seed, res)
					case res.Verdict != faults.Recovered:
						continue
					}
					recovered++
					if row.perOpCommit && (res.Committed != res.Acked || res.Survived != res.Keys) {
						t.Fatalf("seed %d: per-op commits must keep every acknowledged op: %s", seed, res)
					}
				}
				if row.sub.Reopen != nil && recovered == 0 {
					t.Fatalf("no seed of %d recovered — recovery path never validated", seeds)
				}
			})
		}
	}
}

// crashFamilies are the row-name prefixes that each have a test of their
// own below; TestCrashContracts holds every row no family claims.
var crashFamilies = []string{"btree", "lsm-", "wal-btree", "wal-lsm"}

// familyRows returns the table rows of one family, or with family "" the
// rows that belong to none.
func familyRows(family string) []crashRow {
	var rows []crashRow
	for _, row := range crashRows() {
		of := ""
		for _, f := range crashFamilies {
			if strings.HasPrefix(row.sub.Name, f) {
				of = f
				break
			}
		}
		if of == family {
			rows = append(rows, row)
		}
	}
	return rows
}

func TestCrashConsistencyBTree(t *testing.T)    { checkContracts(t, familyRows("btree")) }
func TestCrashConsistencyLSM(t *testing.T)      { checkContracts(t, familyRows("lsm-")) }
func TestCrashConsistencyWALBTree(t *testing.T) { checkContracts(t, familyRows("wal-btree")) }
func TestCrashConsistencyWALLSM(t *testing.T)   { checkContracts(t, familyRows("wal-lsm")) }

// TestCrashContracts holds the rows no family test claims — today hash and
// pbt, which have no recovery path and must report no-recovery on every
// seed.
func TestCrashContracts(t *testing.T) {
	rows := familyRows("")
	if len(rows) == 0 {
		t.Fatal("every row is claimed by a family test; nothing left to hold")
	}
	checkContracts(t, rows)
}

// TestCrashCheckCommittedWatermark: with per-op commits every acknowledged
// op is committed before it returns, so on any seed that recovers the
// committed watermark covers the whole acknowledged log — and the contract
// then brings every key back in its latest acknowledged state.
func TestCrashCheckCommittedWatermark(t *testing.T) {
	for _, row := range crashRows() {
		if !row.perOpCommit {
			continue
		}
		recovered := 0
		for seed := uint64(1); seed <= 10; seed++ {
			res := faults.CheckCrash(faults.CheckConfig{Seed: seed}, row.sub)
			if !res.Verdict.Acceptable() {
				t.Fatalf("%s seed %d: %s", row.sub.Name, seed, res)
			}
			if res.Verdict != faults.Recovered {
				continue
			}
			recovered++
			if res.Committed != res.Acked || res.Survived != res.Keys {
				t.Fatalf("%s seed %d: per-op commits must keep every acknowledged op: %s", row.sub.Name, seed, res)
			}
		}
		if recovered == 0 {
			t.Fatalf("%s: no seed recovered; watermark property never exercised", row.sub.Name)
		}
	}
}

// FuzzCrashTrial: any table row, seed, op budget (up to 2000) and crash
// write yields an acceptable verdict.
func FuzzCrashTrial(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(400), uint64(0))
	f.Add(uint8(5), uint64(7), uint16(1500), uint64(0))
	f.Add(uint8(10), uint64(3), uint16(1500), uint64(900))
	rows := crashRows()
	f.Fuzz(func(t *testing.T, row uint8, seed uint64, ops uint16, crash uint64) {
		sub := rows[int(row)%len(rows)].sub
		cfg := faults.CheckConfig{Seed: seed, Ops: 1 + int(ops)%2000, CrashAtWrite: crash % (1 << 13)}
		if res := faults.CheckCrash(cfg, sub); !res.Verdict.Acceptable() {
			t.Fatalf("%s\n%s", res, repro(sub, cfg, res))
		}
	})
}

// TestCrashCheckCatchesViolations: the floor rule flags a recovery that
// serves a key no op ever wrote (garbage, even key 0 with value 0) and one
// that loses keys the contract promised back.
func TestCrashCheckCatchesViolations(t *testing.T) {
	garbage := crashRows()[0].sub // btree, lossy
	garbage.Reopen = func(p *storage.BufferPool) (core.AccessMethod, error) {
		tr, err := btree.New(p, btree.Config{})
		if err == nil {
			err = tr.Insert(0, 0)
		}
		return tr, err
	}
	amnesia := crashRows()[6].sub // wal-btree/b=1, durable to commit
	amnesia.Reopen = func(p *storage.BufferPool) (core.AccessMethod, error) { return btree.New(p, btree.Config{}) }
	for _, sub := range []faults.Subject{garbage, amnesia} {
		res := faults.CheckCrash(faults.CheckConfig{Seed: 2}, sub)
		if res.Verdict != faults.Violated {
			t.Fatalf("%s: %s", sub.Name, res)
		}
		t.Logf("%s: %s", sub.Name, res)
	}
}

// TestCrashCheckDeterminism: the checker is a pure function of its config —
// same seed, same subject shape, byte-identical result line.
func TestCrashCheckDeterminism(t *testing.T) {
	cfg := faults.CheckConfig{Seed: 3}
	sub := crashRows()[4].sub // lsm-level
	a := faults.CheckCrash(cfg, sub)
	b := faults.CheckCrash(cfg, sub)
	if a.String() != b.String() {
		t.Fatalf("diverged:\n  %s\n  %s", a, b)
	}
}

// TestCrashCheckNoRecoveryPath: a subject without a Reopen hook is reported
// as no-recovery, which is acceptable (declared fully lossy).
func TestCrashCheckNoRecoveryPath(t *testing.T) {
	sub := crashRows()[0].sub
	sub.Reopen = nil
	res := faults.CheckCrash(faults.CheckConfig{Seed: 1, CrashAtWrite: 5}, sub)
	if res.Verdict != faults.NoRecovery {
		t.Fatalf("verdict: %s", res)
	}
	if !res.Verdict.Acceptable() {
		t.Fatal("no-recovery must be acceptable")
	}
}

// TestCrashCheckNoCrash: a crash point beyond the workload's writes reports
// no-crash rather than inventing a verdict.
func TestCrashCheckNoCrash(t *testing.T) {
	res := faults.CheckCrash(faults.CheckConfig{Seed: 1, Ops: 20, CrashAtWrite: 1 << 40}, crashRows()[0].sub)
	if res.Verdict != faults.NoCrash {
		t.Fatalf("verdict: %s", res)
	}
}
