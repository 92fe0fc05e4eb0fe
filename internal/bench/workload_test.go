package bench

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/serve"
)

// streamHasher folds generated records and operations into one FNV-64a
// digest, field by field in a fixed little-endian layout.
type streamHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func (s *streamHasher) put(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(s.buf[:], v)
		s.h.Write(s.buf[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *streamHasher) point(req serve.Request, want serve.Result) {
	s.put(uint64(req.Op), uint64(req.Key), uint64(req.Value), uint64(want.Value), b2u(want.OK))
}

func (s *streamHasher) op(op StreamOp) {
	s.point(op.Req, op.Want)
	s.put(b2u(op.Scan), uint64(op.Lo), uint64(op.Hi), uint64(op.WantRows))
}

// The generated streams are pinned, not only compared between generators:
// each case hashes two clients' preload and 4n NextOp results, with SetPhase
// switching the mix halfway, and the digests were recorded before the
// generator's key table was rewritten. A change that reorders a draw, picks a
// different live key or predicts a different outcome moves a digest. Never
// regenerate them to make a change pass: a moved digest means the serve,
// mvcc and drift experiments and every rumperf stream changed too.
func TestStreamGenStreamsPinned(t *testing.T) {
	dist := func(s string) KeyDist {
		d, err := ParseKeyDist(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	mix := func(s string) ServeMix {
		m, err := ParseServeMix(s)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := []struct {
		name        string
		seed        int64
		n           int
		mix, mix2   ServeMix
		dist, dist2 KeyDist
		want        uint64
	}{
		{"read90-zipf1.1", 1, 2048, mix("read90"), mix("read50"), dist("zipf:1.1"), dist("zipf:0.7"), 0x34c92e8b432d9d6b},
		{"zipf1", 2, 2048, DefaultServeMix(), mix("read99"), dist("zipf:1"), dist("zipf:1"), 0x7b568cf5aedb03a3},
		{"read50-uniform", 3, 2048, mix("read50"), mix("read90"), UniformDist(), UniformDist(), 0xf5081a2615871999},
		{"ingest-wal-uniform", 4, 2048, mix("get=0.1,insert=0.6,update=0.2,delete=0.1"), mix("read50"), UniformDist(), dist("zipf:0.8"), 0xf70a039ade5ea32c},
		{"getmiss-scan-hotspot", 5, 2048, mix("get=0.6,scan=0.2,insert=0.1,update=0.05,delete=0.05,getmiss=0.3,scanrows=64"),
			mix("read90,getmiss=0.5"), dist("hotspot:90/10"), dist("hotspot:0.8/0.05"), 0x52da20b75dc5be98},
		{"delete-heavy-small", 6, 32, mix("get=0.1,update=0.1,delete=0.7,insert=0.05,scan=0.05,getmiss=0.3,scanrows=4"),
			mix("get=0.2,delete=0.6,insert=0.2"), UniformDist(), dist("zipf:1.1"), 0xf48090de5f4db7c5},
	}
	for _, c := range cases {
		s := &streamHasher{h: fnv.New64a()}
		for client := 0; client < 2; client++ {
			g := NewStreamGenDist(c.seed, client, c.mix, c.dist)
			for _, r := range g.InitRecords(c.n) {
				s.put(uint64(r.Key), uint64(r.Value))
			}
			for i := 0; i < 4*c.n; i++ {
				if i == 2*c.n {
					g.SetPhase(c.mix2, c.dist2)
				}
				s.op(g.NextOp())
			}
			s.put(uint64(g.Live()))
		}
		if got := s.h.Sum64(); got != c.want {
			t.Errorf("%s: stream digest %#016x, pinned %#016x", c.name, got, c.want)
		}
	}

	// StableReadGen's batches: the coin, the reader's reads and scans and the
	// writer's mutations, cut where Fill cuts them.
	s := &streamHasher{h: fnv.New64a()}
	const n, batch = 2048, 64
	smix := mix("get=0.8,scan=0.05,insert=0.05,update=0.05,delete=0.05,getmiss=0.1,scanrows=32")
	for client := 0; client < 2; client++ {
		g := NewStableReadGen(7, client, 2, smix, dist("zipf:1.1"), 4*n)
		for _, r := range g.InitRecords(n) {
			s.put(uint64(r.Key), uint64(r.Value))
		}
		reqs, want := make([]serve.Request, batch), make([]serve.Result, batch)
		for {
			k, scan := g.Fill(reqs, want)
			if k == 0 && !scan.Scan {
				break
			}
			s.put(uint64(k))
			for i := range k {
				s.point(reqs[i], want[i])
			}
			s.op(scan)
		}
		s.put(uint64(g.Live()))
	}
	if got, pinned := s.h.Sum64(), uint64(0xe85c26a015b29600); got != pinned {
		t.Errorf("stable-read fill: stream digest %#016x, pinned %#016x", got, pinned)
	}
}

// BenchmarkStreamNext is the generator's cost per point op on the rumperf
// mixes, over a client's 131 072 preloaded keys: the generator is rebuilt,
// off the clock, every 131 072 ops, so the live count stays within 1.5× of
// the preload under even the ingest mix's net half an insert per op.
func BenchmarkStreamNext(b *testing.B) {
	const live, span = 1 << 17, 1 << 17
	for _, c := range []struct{ name, mix, dist string }{
		{"read90-zipf1.1", "read90", "zipf:1.1"},
		{"read50-uniform", "read50", "uniform"},
		{"ingest-wal", "get=0.1,insert=0.6,update=0.2,delete=0.1", "uniform"},
	} {
		mix, err := ParseServeMix(c.mix)
		if err != nil {
			b.Fatal(err)
		}
		dist, err := ParseKeyDist(c.dist)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var g *StreamGen
			for i := 0; i < b.N; i++ {
				if i%span == 0 {
					b.StopTimer()
					g = NewStreamGenDist(1, 0, mix, dist)
					g.InitRecords(live)
					b.StartTimer()
				}
				g.Next()
			}
		})
	}
}

// BenchmarkInitRecords is one client's preload of 262 144 records, rumperf's
// per-client share on mixed-outofcache: draw, record in the model, sort.
func BenchmarkInitRecords(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewStreamGen(1, 0, DefaultServeMix()).InitRecords(1 << 18)
	}
}
