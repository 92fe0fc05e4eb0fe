package repro

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/methods"
	"repro/internal/workload"
)

// The experiment benchmarks: one per table/figure of the paper. Each
// iteration regenerates the artifact at a moderate size; run a single
// iteration with -benchtime=1x to print nothing but still measure cost, or
// use cmd/rumbench for the rendered outputs.

var benchCfg = bench.Config{Seed: 1, N: 1 << 14, Ops: 8000}

func BenchmarkProps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunProps(benchCfg)
		for _, p := range r.Results {
			if !p.Holds {
				b.Fatalf("Prop %d violated", p.Prop)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunTable1(benchCfg, []int{1 << 12, 1 << 14}, 128)
		if len(r.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunFig1(benchCfg)
		if r.ChecksOK != len(r.Checks) {
			b.Fatalf("%d/%d fig1 orderings hold", r.ChecksOK, len(r.Checks))
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunFig2(benchCfg)
		for _, s := range r.Sweeps {
			first, last := s.Points[0], s.Points[len(s.Points)-1]
			switch {
			case !s.Monotone:
				b.Fatalf("fig2 %s not monotone", s.Method)
			case last.MO <= first.MO:
				b.Fatalf("fig2 %s: MO did not grow", s.Method)
			case last.RO >= first.RO:
				b.Fatalf("fig2 %s: disk reads did not fall", s.Method)
			case s.Method == "btree" && last.UO >= first.UO:
				b.Fatalf("fig2 btree: write-backs did not fall")
			case last.UO > first.UO:
				b.Fatalf("fig2 %s: write-backs rose", s.Method)
			}
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	cfg := bench.Config{Seed: 1, N: 4096, Ops: 2500}
	for i := 0; i < b.N; i++ {
		r := bench.RunFig3(cfg)
		if len(r.Families) == 0 {
			b.Fatal("no families")
		}
	}
}

func BenchmarkConjecture(b *testing.B) {
	cfg := bench.Config{Seed: 1, N: 4096, Ops: 2500}
	for i := 0; i < b.N; i++ {
		r := bench.RunConjecture(cfg)
		if r.Dominant {
			b.Fatal("dominant configuration")
		}
	}
}

func BenchmarkAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunAdaptive(benchCfg)
		if !r.Converged {
			b.Fatal("cracking did not converge")
		}
	}
}

// Micro-benchmarks: per-structure operation costs in wall-clock terms (the
// RUM meters measure data movement; these measure CPU).

const microN = 1 << 15

func preloaded(b *testing.B, name string) *core.Instrumented {
	b.Helper()
	spec, err := methods.Lookup(methods.Options{PoolPages: 64}, name)
	if err != nil {
		b.Fatal(err)
	}
	am := spec.New()
	gen := workload.New(workload.Config{Seed: 1, Mix: workload.LookupOnly, InitialLen: microN})
	if err := core.Preload(am, gen); err != nil {
		b.Fatal(err)
	}
	return am
}

var microMethods = []string{
	"btree", "hash", "skiplist", "trie", "lsm-level", "lsm-tier",
	"zonemap", "bitmap", "sorted-column", "cracking",
}

func BenchmarkGet(b *testing.B) {
	for _, name := range microMethods {
		b.Run(name, func(b *testing.B) {
			am := preloaded(b, name)
			gen := workload.New(workload.Config{Seed: 2, Mix: workload.LookupOnly, InitialLen: microN})
			keys := make([]uint64, 0, microN)
			for _, op := range gen.InitialRecords() {
				keys = append(keys, op.Key)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				am.Get(keys[i%len(keys)])
			}
		})
	}
}

func BenchmarkInsert(b *testing.B) {
	for _, name := range microMethods {
		b.Run(name, func(b *testing.B) {
			if name == "sorted-column" && b.N > 1<<16 {
				b.Skip("quadratic under mass inserts")
			}
			am := preloaded(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Fresh scattered keys beyond the preload domain.
				k := (uint64(i)*0x9e3779b97f4a7c15)>>20 | 1<<44
				_ = am.Insert(k, uint64(i))
			}
		})
	}
}

func BenchmarkRangeScan(b *testing.B) {
	for _, name := range microMethods {
		b.Run(name, func(b *testing.B) {
			am := preloaded(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := uint64(i%1024) << 30
				am.RangeScan(lo, lo+(1<<30), func(core.Key, core.Value) bool { return true })
			}
		})
	}
}

func BenchmarkUpdate(b *testing.B) {
	for _, name := range microMethods {
		b.Run(name, func(b *testing.B) {
			am := preloaded(b, name)
			gen := workload.New(workload.Config{Seed: 2, Mix: workload.LookupOnly, InitialLen: microN})
			keys := make([]uint64, 0, microN)
			for _, op := range gen.InitialRecords() {
				keys = append(keys, op.Key)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				am.Update(keys[i%len(keys)], uint64(i))
			}
		})
	}
}

// BenchmarkWorkloadMixes profiles a representative structure under each
// canonical mix, reporting measured amplifications as benchmark metrics.
func BenchmarkWorkloadMixes(b *testing.B) {
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"read-heavy", workload.ReadHeavy},
		{"write-heavy", workload.WriteHeavy},
		{"scan-heavy", workload.ScanHeavy},
		{"balanced", workload.Balanced},
	}
	for _, name := range []string{"btree", "lsm-level", "zonemap"} {
		for _, m := range mixes {
			b.Run(fmt.Sprintf("%s/%s", name, m.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec, err := methods.Lookup(methods.Options{PoolPages: 16}, name)
					if err != nil {
						b.Fatal(err)
					}
					gen := workload.New(workload.Config{Seed: 1, Mix: m.mix, InitialLen: 1 << 13, RangeLen: 1 << 30})
					prof, err := core.RunProfile(spec.New(), gen, 4000)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(prof.Point.R, "RO")
						b.ReportMetric(prof.Point.U, "UO")
						b.ReportMetric(prof.Point.M, "MO")
					}
				}
			})
		}
	}
}

func BenchmarkExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.RunExtensions(benchCfg)
		if r.VEBLines >= r.BinaryLines {
			b.Fatal("cache-oblivious ablation inverted")
		}
	}
}
