package bench

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestParseKeyDist(t *testing.T) {
	good := map[string]string{
		"":               "uniform",
		"uniform":        "uniform",
		" uniform ":      "uniform",
		"zipf":           "zipf:0.99",
		"zipf:1.1":       "zipf:1.1",
		"hotspot":        "hotspot:90/10",
		"hotspot:90/10":  "hotspot:90/10",
		"hotspot:0.8/.2": "hotspot:80/20",
	}
	for in, want := range good {
		d, err := ParseKeyDist(in)
		if err != nil {
			t.Errorf("ParseKeyDist(%q): %v", in, err)
			continue
		}
		if d.String() != want {
			t.Errorf("ParseKeyDist(%q).String() = %q, want %q", in, d.String(), want)
		}
		// String form must round-trip.
		d2, err := ParseKeyDist(d.String())
		if err != nil || d2 != d {
			t.Errorf("round trip of %q: got %+v err %v", d.String(), d2, err)
		}
	}
	for _, in := range []string{"latest", "zipf:0", "zipf:9", "zipf:x", "hotspot:90", "hotspot:0/10", "hotspot:90/x",
		"zipf:NaN", "zipf:Inf", "hotspot:NaN/10", "hotspot:90/NaN", "hotspot:Inf/10"} {
		if _, err := ParseKeyDist(in); err == nil {
			t.Errorf("ParseKeyDist(%q) accepted", in)
		}
	}
}

// rank must be a pure function of its draws with in-range results at the
// u→1 edges, and the skewed kinds must actually skew: zipf front-loads low
// ranks, hotspot puts HotAccess of the mass on the first HotKeys·n ranks.
func TestKeyDistRank(t *testing.T) {
	const n = 1000
	zipf, _ := ParseKeyDist("zipf:1.1")
	hot, _ := ParseKeyDist("hotspot:90/10")
	for _, d := range []KeyDist{UniformDist(), zipf, hot} {
		for _, u := range []float64{0, 0.5, 0.999999, 1 - 1e-16} {
			if i := d.rank(u, u, n, d.zipfPow(n)); i < 0 || i >= n {
				t.Errorf("%s.rank(%g) = %d out of range", d, u, i)
			}
		}
		if d.rank(0.25, 0.25, n, d.zipfPow(n)) != d.rank(0.25, 0.25, n, d.zipfPow(n)) {
			t.Errorf("%s.rank not deterministic", d)
		}
	}
	// Tally mass over an evenly spaced grid of draws.
	const grid = 10000
	zipfLow, hotFront := 0, 0
	for i := 0; i < grid; i++ {
		u := (float64(i) + 0.5) / grid
		u2 := float64((i*7919)%grid) / grid
		if zipf.rank(u, 0, n, zipf.zipfPow(n)) < n/100 {
			zipfLow++
		}
		if hot.rank(u, u2, n, 0) < n/10 {
			hotFront++
		}
	}
	// Theoretical mass on the top 1% of ranks for the truncated pareto at
	// θ=1.1, n=1000 is ≈0.43 — far above uniform's 0.01.
	if frac := float64(zipfLow) / grid; frac < 0.35 {
		t.Errorf("zipf:1.1 puts %.2f of mass on the top 1%% of ranks, want ≈0.43", frac)
	}
	if frac := float64(hotFront) / grid; frac < 0.85 || frac > 0.95 {
		t.Errorf("hotspot:90/10 puts %.2f of mass on the hot region, want ~0.90", frac)
	}
}

// A uniform NewStreamGenDist stream and the scan-capable NextOp stream with
// Scan=0 must both reproduce NewStreamGen's byte-exact request/outcome
// sequence — the compatibility contract that keeps every pre-existing
// experiment's stdout stable.
func TestStreamGenDistUniformCompat(t *testing.T) {
	const ops = 3000
	mix := DefaultServeMix()
	base := NewStreamGen(11, 2, mix)
	viaDist := NewStreamGenDist(11, 2, mix, UniformDist())
	viaOp := NewStreamGen(11, 2, mix)
	base.InitRecords(256)
	viaDist.InitRecords(256)
	viaOp.InitRecords(256)
	for i := 0; i < ops; i++ {
		wreq, wwant := base.Next()
		dreq, dwant := viaDist.Next()
		if dreq != wreq || dwant != wwant {
			t.Fatalf("op %d: uniform dist diverged: %+v vs %+v", i, dreq, wreq)
		}
		op := viaOp.NextOp()
		if op.Scan {
			t.Fatalf("op %d: scan generated from a scan-free mix", i)
		}
		if op.Req != wreq || op.Want != wwant {
			t.Fatalf("op %d: NextOp diverged from Next: %+v vs %+v", i, op.Req, wreq)
		}
	}
}

// Skewed streams must shift traffic onto few keys without breaking the
// model: every generated outcome stays correct (spot-checked by replaying
// into a map), and the top-8 get-key share orders uniform < zipf.
func TestStreamGenSkewedStreams(t *testing.T) {
	share := func(dist string) float64 {
		d, err := ParseKeyDist(dist)
		if err != nil {
			t.Fatal(err)
		}
		g := NewStreamGenDist(5, 0, ServeMix{Get: 0.95, Insert: 0.05}, d)
		g.InitRecords(2048)
		counts := map[uint64]int{}
		gets := 0
		for i := 0; i < 8000; i++ {
			req, _ := g.Next()
			if req.Op == serve.OpGet {
				counts[uint64(req.Key)]++
				gets++
			}
		}
		top := make([]int, 0, len(counts))
		for _, c := range counts {
			top = append(top, c)
		}
		// top-8 share
		for i := 0; i < 8 && i < len(top); i++ {
			for j := i + 1; j < len(top); j++ {
				if top[j] > top[i] {
					top[i], top[j] = top[j], top[i]
				}
			}
		}
		sum := 0
		for i := 0; i < 8 && i < len(top); i++ {
			sum += top[i]
		}
		return float64(sum) / float64(gets)
	}
	uni, zipf := share("uniform"), share("zipf:1.2")
	if zipf < 4*uni || zipf < 0.2 {
		t.Errorf("zipf top-8 get share %.3f vs uniform %.3f: not skewed", zipf, uni)
	}
}

// The scan path: renormalized point thresholds keep the realized mix true
// to the requested one (no residual mass leaking into delete), and every
// scan's WantRows matches a replay of the model over [Lo, Hi].
func TestStreamGenScanOps(t *testing.T) {
	mix := ServeMix{Get: 0.50, Insert: 0.05, Update: 0.05, Scan: 0.40, ScanRows: 128, GetMiss: 0.05}
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
	g := NewStreamGen(3, 1, DefaultServeMix())
	g.InitRecords(1024)
	g.SetPhase(mix, UniformDist())
	var scans, deletes, points, rowsSum int
	for i := 0; i < 6000; i++ {
		op := g.NextOp()
		if op.Scan {
			scans++
			rows := 0
			for k := range g.modelKeys(t) {
				if k >= uint64(op.Lo) && k <= uint64(op.Hi) {
					rows++
				}
			}
			if rows != op.WantRows {
				t.Fatalf("scan %d: WantRows %d, model holds %d in range", scans, op.WantRows, rows)
			}
			rowsSum += rows
			continue
		}
		points++
		if op.Req.Op == serve.OpDelete {
			deletes++
		}
	}
	if frac := float64(scans) / 6000; frac < 0.35 || frac > 0.45 {
		t.Errorf("scan fraction %.3f, want ~0.40", frac)
	}
	if frac := float64(deletes) / 6000; frac > 0.01 {
		t.Errorf("delete fraction %.3f from a delete-free mix (threshold normalization broken)", frac)
	}
	if avg := float64(rowsSum) / float64(scans); avg < 64 || avg > 256 {
		t.Errorf("mean scan rows %.0f, want near target 128", avg)
	}
}

// modelKeys exposes the model's key set — the keys the key table holds as
// live — for test replay, checking on the way that each indexes itself in
// live.
func (g *StreamGen) modelKeys(t *testing.T) map[uint64]bool {
	m := make(map[uint64]bool, len(g.live))
	for k, i := range g.keys {
		if i < 0 {
			continue
		}
		if g.live[i] != k {
			t.Fatalf("key table: %#x indexes live[%d] = %#x", k, i, g.live[i])
		}
		m[uint64(k)] = true
	}
	if len(m) != len(g.live) {
		t.Fatalf("key table holds %d live keys, live has %d", len(m), len(g.live))
	}
	return m
}

func TestServeMixScanParsing(t *testing.T) {
	m, err := ParseServeMix("get=0.5,insert=0.05,update=0.05,delete=0,scan=0.4,scanrows=512,getmiss=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if m.Scan != 0.4 || m.ScanRows != 512 {
		t.Fatalf("parsed %+v", m)
	}
	if !strings.Contains(m.String(), "scan=0.4") || !strings.Contains(m.String(), "scanrows=512") {
		t.Errorf("String() drops scan fields: %s", m.String())
	}
	if _, err := ParseServeMix("get=0.5,scan=0.4"); err == nil {
		t.Error("accepted a mix summing past 1")
	}
	if _, err := ParseServeMix("scan=-0.1"); err == nil {
		t.Error("accepted a negative scan fraction")
	}
	// A row count is an integer that fits one: 0.5 used to truncate to 0 and
	// serve the default 256 rows, 2.7 to 2, 1e300 to whatever the platform
	// converts it to.
	for _, in := range []string{"scanrows=0.5", "scanrows=2.7", "scanrows=1e300", "scanrows=-1e300", "scanrows=9223372036854775808"} {
		if _, err := ParseServeMix("get=0.6,scan=0.4," + in); err == nil || !strings.Contains(err.Error(), "scanrows") {
			t.Errorf("ParseServeMix(%q): error %v, want one naming scanrows", in, err)
		}
	}
	if m, err := ParseServeMix("get=0.6,scan=0.4,scanrows=1e3"); err != nil || m.ScanRows != 1000 {
		t.Errorf("scanrows=1e3 parsed to %+v, %v; want 1000 rows", m, err)
	}
	// Non-finite values fail every range comparison; they must not slip through.
	for _, in := range []string{"get=NaN", "getmiss=NaN", "scan=NaN", "scanrows=NaN", "scanrows=Inf", "get=Inf", "read99,getmiss=nan"} {
		if _, err := ParseServeMix(in); err == nil {
			t.Errorf("ParseServeMix(%q) accepted", in)
		}
	}
	if err := (ServeMix{Get: math.NaN(), Insert: 1}).Validate(); err == nil {
		t.Error("Validate accepted a NaN fraction")
	}
	if err := (KeyDist{Kind: "zipf", Theta: math.NaN()}).Validate(); err == nil {
		t.Error("Validate accepted a NaN theta")
	}
}

// A key=value list whose op fractions already sum to 1 is a whole mix: the
// ops it leaves out are zero, not the standard mix's. Anything short of 1
// still inherits the defaults (and usually fails to validate).
func TestServeMixCompleteList(t *testing.T) {
	m, err := ParseServeMix("get=0.6,insert=0.1,update=0.1,scan=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if m.Delete != 0 || m.Scan != 0.2 || m.GetMiss != serveGetMiss {
		t.Errorf("parsed %+v, want delete=0 and the default getmiss", m)
	}
	if m, err := ParseServeMix("insert=0.25,update=0.10"); err != nil || m.Get != serveFracGet || m.Delete == 0 {
		t.Errorf("a partial list lost the defaults: %+v, %v", m, err)
	}
	if m, err := ParseServeMix("read50,get=1"); err != nil || m.Insert != 0 {
		t.Errorf("read50,get=1 = %+v, %v; want a pure-get mix", m, err)
	}
}

// stableOps drains g through Fill at the given batch size and returns the read
// and the write sub-stream, each with its expected outcomes, checking that
// every batch is pure.
func stableOps(t *testing.T, g *StableReadGen, batch int) (reads, writes []StreamOp) {
	t.Helper()
	reqs, want := make([]serve.Request, batch), make([]serve.Result, batch)
	for {
		n, scan := g.Fill(reqs, want)
		if n == 0 && !scan.Scan {
			return reads, writes
		}
		for i := 0; i < n; i++ {
			op := StreamOp{Req: reqs[i], Want: want[i]}
			if reqs[i].Op == serve.OpGet {
				reads = append(reads, op)
			} else {
				writes = append(writes, op)
			}
			if (reqs[i].Op == serve.OpGet) != (reqs[0].Op == serve.OpGet) {
				t.Fatalf("batch %d mixes reads and writes at %d", batch, i)
			}
		}
		if scan.Scan {
			if n > 0 && reqs[0].Op != serve.OpGet {
				t.Fatalf("batch %d: a scan behind a write batch", batch)
			}
			reads = append(reads, scan)
		}
	}
}

// The stable-read composition's per-op stream is a function of (seed, client,
// mix) alone: batch 1 is the per-op order itself, and batch 16 and batch 64
// hand out the same reads in the same order and the same writes in the same
// order, only grouped differently. Reads never touch the writer's namespace.
func TestStableReadGenBatchIndependent(t *testing.T) {
	mix, err := ParseServeMix("get=0.7,insert=0.1,update=0.06,delete=0.04,scan=0.1,scanrows=16")
	if err != nil {
		t.Fatal(err)
	}
	const ops = 5000
	drain := func(batch int) (reads, writes []StreamOp, live int) {
		g := NewStableReadGen(5, 1, 4, mix, UniformDist(), ops)
		g.InitRecords(256)
		reads, writes = stableOps(t, g, batch)
		return reads, writes, g.Live()
	}
	r1, w1, live1 := drain(1)
	if len(r1)+len(w1) != ops || len(w1) < ops/10 || len(r1) < ops/2 {
		t.Fatalf("batch 1 drew %d reads and %d writes of %d ops", len(r1), len(w1), ops)
	}
	readerNS := core.Key(1+1) << 44
	for _, op := range r1 {
		k := op.Req.Key
		if op.Scan {
			k = op.Hi
		}
		if k>>44 != readerNS>>44 {
			t.Fatalf("read %+v leaves the reader's namespace", op)
		}
	}
	for _, batch := range []int{16, 64} {
		r, w, live := drain(batch)
		if !slices.Equal(r, r1) || !slices.Equal(w, w1) || live != live1 {
			t.Errorf("batch %d: per-op stream differs from batch 1 (%d/%d reads, %d/%d writes, live %d/%d)",
				batch, len(r), len(r1), len(w), len(w1), live, live1)
		}
	}
}
