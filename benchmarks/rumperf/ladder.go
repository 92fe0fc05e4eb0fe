package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/rum"
	"repro/internal/serve"
)

const (
	ladderBlock = 256   // calls per timed block, so the clock's own cost is amortised
	kernelOps   = 32768 // point operations per kind kernel, at full size
	kernelScans = 256   // range scans per scan kernel, at full size
)

// timeBlocks runs fn over [0,n) in blocks of ladderBlock, times each block
// from outside, records one span per block under one span for the whole, and
// returns the mean nanoseconds per unit.
func (h *harness) timeBlocks(name string, n int, fn func(lo, hi int)) float64 {
	return h.timeCalls(name, n, ladderBlock, nil, fn)
}

// timeCalls is timeBlocks with the block size given and an optional prep
// that runs before each block, off the clock.
func (h *harness) timeCalls(name string, n, block int, prep, fn func(lo, hi int)) float64 {
	trace := h.w.name + "/ladder"
	at := func(t time.Time) int64 { return int64(t.Sub(h.spans.epoch)) }
	parent := h.spans.add(span{Trace: trace, Name: name, Workload: h.w.name, StartNs: at(time.Now()), NOps: n})
	var total time.Duration
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		if prep != nil {
			prep(lo, hi)
		}
		s := time.Now()
		fn(lo, hi)
		e := time.Now()
		total += e.Sub(s)
		h.spans.add(span{Trace: trace, Parent: parent, Name: name + ".block", Workload: h.w.name,
			Seq: lo / block, StartNs: at(s), EndNs: at(e), NOps: hi - lo})
	}
	h.spans.spans[parent-1].EndNs = at(time.Now())
	return float64(total.Nanoseconds()) / float64(n)
}

// direct applies requests to an access method by plain calls, batch by
// batch, committing after a batch that wrote when the method is logged: the
// flush policy of a shard, without the shard.
func direct(am core.AccessMethod) func(reqs []serve.Request, res []serve.Result) {
	commit, _ := am.(serve.Committer)
	if in, ok := am.(*core.Instrumented); ok {
		commit, _ = in.Unwrap().(serve.Committer)
	}
	return func(reqs []serve.Request, res []serve.Result) {
		for lo := 0; lo < len(reqs); lo += batchSize {
			wrote := false
			for i := lo; i < min(lo+batchSize, len(reqs)); i++ {
				r := &reqs[i]
				var out serve.Result
				switch r.Op {
				case serve.OpGet:
					out.Value, out.OK = am.Get(r.Key)
				case serve.OpInsert:
					out.OK, wrote = am.Insert(r.Key, r.Value) == nil, true
				case serve.OpUpdate:
					out.OK, wrote = am.Update(r.Key, r.Value), true
				case serve.OpDelete:
					out.OK, wrote = am.Delete(r.Key), true
				}
				res[i] = out
			}
			if wrote && commit != nil {
				_ = commit.Commit() // a failed commit shows as wrong results
			}
		}
	}
}

// load puts the preload records into am the way Server.Preload does.
func load(am core.AccessMethod, recs []core.Record) error {
	in := core.Instrument(am)
	if err := in.BulkLoad(recs); err != nil {
		return err
	}
	if c, ok := in.Unwrap().(serve.Committer); ok {
		if err := c.Commit(); err != nil {
			return err
		}
	}
	in.Flush()
	return nil
}

// checked counts results that differ from their predictions.
type checked struct{ attempted, failed int64 }

func (c *checked) compare(res, want []serve.Result) {
	c.attempted += int64(len(res))
	for i := range res {
		if res[i] != want[i] {
			c.failed++
		}
	}
}

// ladder replays the first ladderOps requests of client 0's stream, from the
// same seed, on one goroutine at each layer boundary in turn: the generator
// alone, the bare structure, the log over it, core.Instrument over that, a
// one-shard server through Do, the same with the Trace tap, the same with
// the Workload tap. Each rung runs the same requests against the same
// preloaded data, so a layer's self time is its rung minus the rung below,
// and the self times add up to the top rung exactly. The kernels that time
// one kind of call at a time run on the rungs' structures afterwards.
func (h *harness) ladder(vals map[string]float64) (checked, error) {
	var ck checked
	w, n := h.w, h.w.ladderOps
	s := h.newStream(0)
	init := s.main.InitRecords(w.n / h.sz.clients)
	reqs := make([]serve.Request, n)
	want := make([]serve.Result, n)
	res := make([]serve.Result, n)
	vals["gen.ns_per_op"] = h.timeBlocks("gen", n, func(lo, hi int) { s.fill(reqs[lo:hi], want[lo:hi]) })

	replay := func(name string, apply func([]serve.Request, []serve.Result)) float64 {
		ns := h.timeBlocks(name, n, func(lo, hi int) { apply(reqs[lo:hi], res[lo:hi]) })
		ck.compare(res, want)
		return ns
	}
	layer := "btree"
	if w.lsmWAL {
		layer = "lsm"
	}

	raw, rawAM, err := w.buildRaw()
	if err != nil {
		return ck, err
	}
	if err := load(rawAM, init); err != nil {
		return ck, err
	}
	rung := replay(layer, direct(rawAM))
	vals[layer+".self_ns_per_op"] = rung
	if raw.lt != nil {
		// The only place the lsm tree's own counters can be read: the log
		// does not expose the tree it wraps.
		st := raw.lt.Stats()
		vals["lsm.flushes"], vals["lsm.compactions"] = float64(st.Flushes), float64(st.Compactions)
		vals["lsm.runs"], vals["lsm.depth"] = float64(raw.lt.Runs()), float64(raw.lt.Depth())
	}

	if w.lsmWAL {
		_, am, err := w.build()
		if err != nil {
			return ck, err
		}
		if err := load(am, init); err != nil {
			return ck, err
		}
		next := replay("wal", direct(am))
		vals["wal.self_ns_per_op"], rung = next-rung, next
	}

	_, am, err := w.build()
	if err != nil {
		return ck, err
	}
	if err := load(am, init); err != nil {
		return ck, err
	}
	next := replay("core", direct(core.Instrument(am)))
	vals["core.self_ns_per_op"], rung = next-rung, next

	one := *h
	one.sz.shards = 1
	var quiet *serve.Server // the untapped server, kept for its kernels
	for _, tap := range []struct {
		name, metric     string
		traced, observed bool
	}{
		{"serve", "serve.self_ns_per_op", false, false},
		{"serve+trace", "obs.trace_self_ns_per_op", true, false},
		{"serve+trace+workload", "obs.workload_self_ns_per_op", true, true},
	} {
		one.w.observed = tap.observed
		srv, err := serve.New(one.serveConfig(tap.traced, func(int) *core.Instrumented {
			_, am, err := w.build()
			if err != nil {
				panic(err)
			}
			return core.Instrument(am)
		}))
		if err != nil {
			return ck, err
		}
		if err := srv.Preload(init); err != nil {
			return ck, err
		}
		if err := srv.Flush(); err != nil {
			return ck, err
		}
		next := replay(tap.name, func(reqs []serve.Request, res []serve.Result) {
			for lo := 0; lo < len(reqs); lo += batchSize {
				if err := srv.Do(reqs[lo:lo+batchSize], res[lo:lo+batchSize]); err != nil {
					clear(res[lo : lo+batchSize]) // shows as wrong results
				}
			}
		})
		vals[tap.metric], rung = next-rung, next
		if quiet == nil {
			quiet = srv
			continue
		}
		if _, err := srv.Stop(); err != nil {
			return ck, err
		}
	}
	vals["ladder.top_ns_per_op"] = rung

	// Kernels, reads first: they leave the generator's model, and so the
	// predictions for both structures, as the replay left it.
	k := min(n, kernelOps/h.sz.div)
	kreqs, kwant, kres := reqs[:k], want[:k], res[:k]
	gets := func() {
		s.main.SetPhase(bench.ServeMix{Get: 1, GetMiss: h.mix.GetMiss}, h.dist)
		for i := range kreqs {
			kreqs[i], kwant[i] = s.main.Next()
		}
	}
	scans := func(name string, scan func(lo, hi core.Key) int) float64 {
		s.main.SetPhase(bench.ServeMix{Scan: 1, ScanRows: 256}, h.dist)
		ops := make([]bench.StreamOp, kernelScans/h.sz.div)
		rows := 0
		for i := range ops {
			ops[i] = s.main.NextOp()
			rows += ops[i].WantRows
		}
		perScan := h.timeBlocks(name, len(ops), func(lo, hi int) {
			for _, op := range ops[lo:hi] {
				ck.attempted++
				if scan(op.Lo, op.Hi) != op.WantRows {
					ck.failed++
				}
			}
		})
		return perScan * float64(len(ops)) / float64(rows)
	}
	emitAll := func(core.Key, core.Value) bool { return true }

	vals["serve.scan_ns_per_row"] = scans("serve.RangeScan", func(lo, hi core.Key) int {
		return quiet.RangeScan(lo, hi, emitAll)
	})
	if w.snapshots {
		gets()
		vals["serve.snapshot_get_ns"] = h.timeBlocks("serve.snapshot-get", k, func(lo, hi int) {
			for ; lo < hi; lo += batchSize {
				_ = quiet.Do(kreqs[lo:lo+batchSize], kres[lo:lo+batchSize])
			}
		})
		ck.compare(kres, kwant)
	}
	if _, err := quiet.Stop(); err != nil {
		return ck, err
	}

	vals[layer+".scan_ns_per_row"] = scans(layer+".RangeScan", func(lo, hi core.Key) int {
		return rawAM.RangeScan(lo, hi, emitAll)
	})
	if w.snapshots {
		gets()
		if err := raw.bt.Publish(); err != nil {
			return ck, err
		}
		snap := raw.bt.Acquire()
		var m rum.Meter
		vals["btree.snapshot_get_ns"] = h.timeBlocks("btree.Snapshot.Get", k, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				kres[i].Value, kres[i].OK = snap.Get(kreqs[i].Key, &m)
			}
		})
		snap.Release()
		ck.compare(kres, kwant)
	}
	mut, mutDist := s.mutator(), h.dist
	if s.writer != nil {
		mutDist = bench.UniformDist()
	}
	apply := direct(rawAM)
	for _, kind := range []struct {
		name string
		gen  *bench.StreamGen
		mix  bench.ServeMix
		dist bench.KeyDist
	}{
		{"get", s.main, bench.ServeMix{Get: 1, GetMiss: h.mix.GetMiss}, h.dist},
		{"insert", mut, bench.ServeMix{Insert: 1}, mutDist},
		{"update", mut, bench.ServeMix{Update: 1}, mutDist},
		{"delete", mut, bench.ServeMix{Delete: 1}, mutDist},
	} {
		kind.gen.SetPhase(kind.mix, kind.dist)
		for i := range kreqs {
			kreqs[i], kwant[i] = kind.gen.Next()
		}
		name := fmt.Sprintf("%s.%s_ns", layer, kind.name)
		vals[name] = h.timeBlocks(name, k, func(lo, hi int) { apply(kreqs[lo:hi], kres[lo:hi]) })
		ck.compare(kres, kwant)
	}
	return ck, nil
}
