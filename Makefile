GO ?= go

.PHONY: check build fmt vet test race racecheck benchmarks examples bench fuzz golden experiments-golden loc prodcover

## check: the full gate — build, gofmt, vet (the default and the assertion
## build), race-enabled tests, the assertion build's tests, the nested
## benchmarks/ module, and the examples run.
check: build fmt vet race racecheck benchmarks examples

build:
	$(GO) build ./...

## fmt: fails, listing the files, if anything is not gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }

## vet: the default build, then the racecheck one, so the assertion files
## (*_on.go: owner, frame, route, sort and view checks) are vetted as well.
vet:
	$(GO) vet ./...
	$(GO) vet -tags racecheck ./...

test:
	$(GO) test ./...

## race: the full suite under the race detector — this is what holds the
## serving layer (internal/serve) and the bench runner to their concurrency
## contracts on every push, and runs the determinism gate: cmd/rumbench's
## TestParallelDeterminism (every experiment, -parallel 1 vs 8, chaos under a
## -faults plan) and TestServeShardDeterminism (serve, mvcc × shards/batch).
race:
	$(GO) test -race ./...

## racecheck: build with the debug assertions compiled in — storage
## single-owner binding, PageView generation stamps, a private copy behind
## every clean frame compared with the device's image at release, MarkDirty
## and eviction (a write that did not go through MarkDirty first panics),
## Data() on a frame after its last Release panics, evicted frames poisoned
## instead of recycled, lsm merge sources and
## sorted-ingest batches checked ascending, a merge that drops tombstones
## checked to leave no run behind at or below its target — and run against
## them the storage, lsm and planner tests, the wal tests, whose checkpoints
## are what feeds the sorted ingest, and the packages that write fetched
## frames or drive the ones that do: btree, hashindex, methods, serve — and
## pbt, whose properties drive btree partitions through bulk load, merge and
## Drop, and faults, where torn writes and crash points meet the
## frame-ownership assertions. Last, internal/bench's generated serving
## cases: catalog rows drawn across media, pools, WAL and MVCC, served
## through the shards under the same assertions. -short trims four packages
## (nothing else reads it): in internal/serve the snapshot stress test runs 4
## write generations instead of 30 and the mailbox back-off test, a scheduler
## bound, is left to `race` — 77 s of asserted page accesses down to 6; in
## internal/faults the crash-contract table runs 8 seeds per row instead of
## 100 (about 35 s), and in internal/methods the catalog's own crash
## contracts 4 instead of 20 (about 15 s, 66 s untrimmed); in internal/bench
## 16 serving cases are drawn instead of 64 (about 3 s).
racecheck:
	$(GO) build -tags racecheck ./...
	$(GO) test -short -tags racecheck ./internal/storage/ ./internal/lsm/ ./internal/lsm/plan/ ./internal/wal/ \
		./internal/btree/ ./internal/hashindex/ ./internal/methods/ ./internal/serve/ ./internal/pbt/ ./internal/faults/
	$(GO) test -short -tags racecheck ./internal/bench -run '^TestGeneratedServeCases$$'

## benchmarks: vet and test the nested repro/benchmarks module (rumperf,
## benchdiff). `./...` at the root never compiles it, so without this a
## serve/bench API change could break rumperf with everything else green.
## About five seconds, offline.
benchmarks:
	$(GO) -C benchmarks vet ./...
	$(GO) -C benchmarks test ./...

## examples: run every examples/* program to completion, stdout discarded;
## a non-zero exit (a log.Fatal, a panic) fails the target. `build` only
## compiles them. About three seconds.
examples:
	@for ex in examples/*/; do \
		echo "== ./$$ex"; \
		$(GO) run ./$$ex >/dev/null || exit 1; \
	done

## bench: the hot-path comparisons quoted in PR descriptions — the obs tap
## (nil-hook must stay allocation-free and within noise of untraced), the
## serving taps (Do quiet vs traced vs fingerprinted: ROADMAP item 1's
## overhead budget, same allocs/op on all three) and the closed loop rumperf
## runs (2 clients × 2 shards × batch 64: the mailbox hop), quiet and traced
## (ClosedLoopTraced: the traced loop's runs of gets on a B-tree), beside the same
## batches served off snapshots (DoBypass: no hop, one GetBatch per shard,
## 0 allocs/op), the btree snapshot's point read alone and in groups (ns per
## key both, 0 allocs/op), the live tree's Get loop beside its GetBatch at
## b = 1, 2, 3, 4, 8, 16 and 32 keys a call (BenchmarkTreeGetBatch: a resident
## 131 072-key tree, ns per key, 0 allocs/op) and, out of cache on the MQSSD
## (262 144 keys through 256 frames, uniform keys), at b = 2, 4 and 16 with
## the read waves' cost/op and reads/op beside the loop's, and 32-op read50
## messages (half writes) served as a shard serves them, with and without the
## tree's Prefetch of each message's keys (mqssd/prefetch-read50: cost/op,
## reads/op and prefetched pages evicted unread per op), the buffer pool's resident hit
## and evicting miss (0 allocs/op both; the miss clean, with a dirty victim,
## and dirty-evict/armed: a dirty victim under a fault injector that never
## fires, within noise of dirty-evict), the lsm L1→L2 spill, the live LSM's
## Get loop beside its GetBatch at b = 4, 16 and 64 (BenchmarkLSMGetBatch: a
## filterless 262 144-key tree through 256 frames on the MQSSD, uniform keys,
## each run's missing pages one wave: cost/op, reads/op and prefetched pages
## evicted unread per op, 0 allocs/op; its resident cases read the same tree
## through a pool that holds every page, the loop beside b = 16, where only
## the page search differs: per key, or sixteen in lock-step), and the log's
## group commit (0 allocs/op) and full checkpoint interval. BenchmarkSnapshotGet was
## re-baselined when it joined this list (PR 24): it reads scattered keys
## (≈ 285 ns per key) where it used to walk them in order (≈ 76 ns, one hot
## leaf, every branch predicted); figures recorded before are not comparable.
## Last, the client side: the stream generator's Next on rumperf's three mixes
## (ns per op, 0 allocs/op; rumserve runs it inside its timed client loop)
## and one client's 262 144-record preload (most of rumperf's setup_s).
bench:
	$(GO) test ./internal/obs -bench BenchmarkInstrumentedGet -benchtime=2s -run '^$$'
	$(GO) test ./internal/serve -bench '^BenchmarkDo(Traced|Fingerprinted|ClosedLoop(Traced)?|Bypass)?$$' -benchmem -benchtime=2s -run '^$$'
	$(GO) test ./internal/btree -bench '^Benchmark(SnapshotGet(Batch)?|TreeGetBatch)$$' -benchmem -benchtime=2s -run '^$$'
	$(GO) test ./internal/storage -bench 'BenchmarkFetch(Hit|Miss)' -benchtime=2s -run '^$$'
	$(GO) test ./internal/lsm -bench BenchmarkCompactionSpill -benchtime=2s -run '^$$'
	$(GO) test ./internal/lsm -bench '^BenchmarkLSMGetBatch$$' -benchmem -benchtime=2s -run '^$$'
	$(GO) test ./internal/wal -bench 'BenchmarkC(ommit|heckpoint)$$' -benchtime=2s -run '^$$'
	$(GO) test ./internal/bench -bench '^Benchmark(StreamNext|InitRecords)$$' -benchmem -benchtime=2s -run '^$$'

## fuzz: every native fuzz target in the module, five seconds each (about
## forty in all) — found by name, so a new `func FuzzX` joins without an edit
## here. Without this the corpora only ever replay their seeds under `go test`.
fuzz:
	@grep -rl --include='*_test.go' '^func Fuzz' internal cmd | xargs -n1 dirname | sort -u | while read pkg; do \
		for target in $$(grep -hoE '^func Fuzz[A-Za-z0-9_]+' $$pkg/*_test.go | cut -c6-); do \
			echo "== ./$$pkg $$target"; \
			$(GO) test ./$$pkg -run '^$$' -fuzz "^$$target\$$" -fuzztime=5s || exit 1; \
		done; \
	done

## golden: regenerate golden files (exporters, CLI usage, rumserve scrape
## skeletons, the rumviz triangle and the rumwizard -verify rows) after an
## intended format change.
golden:
	$(GO) test ./internal/obs -run Golden -update
	$(GO) test ./cmd/rumbench -run Golden -update
	$(GO) test ./cmd/rumserve -run Golden -update
	$(GO) test ./cmd/rumviz -run Golden -update
	$(GO) test ./cmd/rumwizard -run Golden -update

## experiments-golden: the committed experiments_output.txt must be exactly
## what `rumbench -exp all` prints today (stdout is deterministic; timings go
## to stderr). Regenerate with
## `go run ./cmd/rumbench -exp all >experiments_output.txt` after an intended
## change — prior sections should stay byte-identical.
experiments-golden:
	$(GO) run ./cmd/rumbench -exp all 2>/dev/null | diff experiments_output.txt -

## loc: the two line counts a simplicity PR quotes, parent and change, in its
## CHANGES.md line — non-test Go under internal/ + cmd/, and under examples/.
## Blank and comment lines count: the same command on both commits is what
## makes the figures comparable.
loc:
	@printf 'internal+cmd %s\n' "$$(find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'examples     %s\n' "$$(find examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

## prodcover: what the programs' own traffic reaches — the list a simplicity
## PR reads before it names code for deletion. Builds cmd/*, examples/* and
## benchmarks/rumperf with coverage counters over every repro package
## (-coverpkg=repro/...; with repro/internal/... alone no counter files are
## written), runs `rumbench -exp all` (with its three exports, so the
## observability layer's own paths count), rumviz, every example, `rumwizard
## -verify` and `rumperf -seconds 1` on all five workloads into one temporary
## GOCOVERDIR, and prints every internal/ function at 0.0%. rumserve is built
## but not run: it is a daemon, and rumperf drives the same serving stack.
## The repro/benchmarks lines are dropped before `go tool cover -func`, which
## cannot resolve that module from here. Not part of `check`; about a minute.
prodcover:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/bin" "$$tmp/cov"; \
	for p in cmd/* examples/*; do \
		$(GO) build -cover -coverpkg=repro/... -o "$$tmp/bin/$$(basename $$p)" ./$$p; \
	done; \
	$(GO) -C benchmarks build -cover -coverpkg=repro/... -o "$$tmp/bin/rumperf" ./rumperf; \
	export GOCOVERDIR="$$tmp/cov"; \
	echo "== rumbench -exp all, traced"; "$$tmp/bin/rumbench" -exp all \
		-trace "$$tmp/trace.jsonl" -timeseries "$$tmp/ts.csv" -metrics "$$tmp/metrics.txt" >/dev/null 2>&1; \
	echo "== rumviz"; "$$tmp/bin/rumviz" >/dev/null; \
	for ex in examples/*; do echo "== $$ex"; "$$tmp/bin/$$(basename $$ex)" >/dev/null; done; \
	echo "== rumwizard -verify"; "$$tmp/bin/rumwizard" -insert 0.7 -get 0.3 -range 0 -update 0 -delete 0 -verify >/dev/null; \
	echo "== rumperf -seconds 1"; (cd "$$tmp" && "$$tmp/bin/rumperf" -seconds 1 >/dev/null); \
	unset GOCOVERDIR; \
	$(GO) tool covdata textfmt -i="$$tmp/cov" -o "$$tmp/all.txt"; \
	grep -v '^repro/benchmarks/' "$$tmp/all.txt" >"$$tmp/repro.txt"; \
	echo "== internal/ functions no binary reaches"; \
	$(GO) tool cover -func="$$tmp/repro.txt" | awk '$$1 ~ /^repro\/internal\// && $$NF == "0.0%"'
