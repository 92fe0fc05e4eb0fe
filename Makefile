GO ?= go

.PHONY: check build fmt vet test race racecheck bench golden experiments-golden chaos-smoke serve-smoke serve-live-smoke mvcc-smoke mvcc-race wal-smoke qdsweep-smoke drift-smoke benchjson

## check: the full gate — build, gofmt, vet, race-enabled tests, and the
## assertion build.
check: build fmt vet race racecheck

build:
	$(GO) build ./...

## fmt: fails, listing the files, if anything is not gofmt-clean.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the full suite under the race detector — this is what holds the
## serving layer (internal/serve) and the bench runner to their concurrency
## contracts on every push.
race:
	$(GO) test -race ./...

## racecheck: build with the debug assertions compiled in — storage
## single-owner binding, PageView generation stamps, evicted frames poisoned
## instead of recycled, lsm merge sources checked ascending — and run the
## storage and lsm tests against them.
racecheck:
	$(GO) build -tags racecheck ./...
	$(GO) test -tags racecheck ./internal/storage/ ./internal/lsm/

## bench: the hot-path comparisons quoted in PR descriptions — the obs tap
## (nil-hook must stay allocation-free and within noise of untraced), the
## buffer pool's evicting miss (0 allocs/op), and the lsm L1→L2 spill.
bench:
	$(GO) test ./internal/obs -bench BenchmarkInstrumentedGet -benchtime=2s -run '^$$'
	$(GO) test ./internal/storage -bench BenchmarkFetchMiss -benchtime=2s -run '^$$'
	$(GO) test ./internal/lsm -bench BenchmarkCompactionSpill -benchtime=2s -run '^$$'

## golden: regenerate golden files (exporters, CLI usage) after an
## intended format change.
golden:
	$(GO) test ./internal/obs -run Golden -update
	$(GO) test ./cmd/rumbench -run Golden -update

## experiments-golden: the committed experiments_output.txt must be exactly
## what `rumbench -exp all` prints today (stdout is deterministic; timings go
## to stderr). Regenerate with
## `go run ./cmd/rumbench -exp all >experiments_output.txt` after an intended
## change — prior sections should stay byte-identical.
experiments-golden:
	$(GO) run ./cmd/rumbench -exp all 2>/dev/null | diff experiments_output.txt -

## chaos-smoke: a tiny end-to-end pass over the fault paths — the chaos
## experiment with a non-trivial plan at two pool widths, diffed to hold
## the determinism contract on every push.
chaos-smoke:
	$(GO) run ./cmd/rumbench -exp chaos -quick -n 2048 -ops 1000 -parallel 1 \
		-faults seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120 >/tmp/chaos-seq.txt
	$(GO) run ./cmd/rumbench -exp chaos -quick -n 2048 -ops 1000 -parallel 8 \
		-faults seed=7,p_read=0.02,p_write=0.02,p_torn=0.5,crash=120 >/tmp/chaos-par.txt
	diff /tmp/chaos-seq.txt /tmp/chaos-par.txt

## serve-smoke: the serving-layer determinism gate, mirroring chaos-smoke —
## the serve experiment's stdout must be byte-identical no matter how the
## run is sharded, batched, or pooled; only the stderr timing report moves.
serve-smoke:
	$(GO) run ./cmd/rumbench -exp serve -quick -n 2048 -ops 1000 \
		-shards 1 -batch 32 -parallel 1 >/tmp/serve-seq.txt
	$(GO) run ./cmd/rumbench -exp serve -quick -n 2048 -ops 1000 \
		-shards 8 -batch 64 -parallel 8 >/tmp/serve-par.txt
	diff /tmp/serve-seq.txt /tmp/serve-par.txt

## mvcc-smoke: the snapshot-read determinism gate — the mvcc experiment's
## stdout (clean replay RUM point, retained bytes, outcome verification)
## must be byte-identical no matter how the live runs are sharded, batched,
## or pooled; throughput and speedup live on stderr only.
mvcc-smoke:
	$(GO) run ./cmd/rumbench -exp mvcc -quick -n 2048 -ops 1000 \
		-shards 1 -batch 32 -parallel 1 >/tmp/mvcc-seq.txt
	$(GO) run ./cmd/rumbench -exp mvcc -quick -n 2048 -ops 1000 \
		-shards 8 -batch 64 -parallel 8 >/tmp/mvcc-par.txt
	diff /tmp/mvcc-seq.txt /tmp/mvcc-par.txt

## wal-smoke: the durability determinism gate — the walsweep experiment
## (cost-unit throughput, per-op cost quantiles, log ledger, crash trials)
## must render byte-identical stdout at any pool width.
wal-smoke:
	$(GO) run ./cmd/rumbench -exp walsweep -quick -n 2048 -ops 1000 \
		-parallel 1 >/tmp/wal-seq.txt
	$(GO) run ./cmd/rumbench -exp walsweep -quick -n 2048 -ops 1000 \
		-parallel 8 >/tmp/wal-par.txt
	diff /tmp/wal-seq.txt /tmp/wal-par.txt

## qdsweep-smoke: the queue-depth determinism gate — the qdsweep experiment
## (batched I/O on the multi-queue SSD: ops/kcost, batch ledger, achieved
## depth, re-ranking summary) must render byte-identical stdout at any pool
## width.
qdsweep-smoke:
	$(GO) run ./cmd/rumbench -exp qdsweep -quick -n 2048 -ops 1000 \
		-parallel 1 >/tmp/qd-seq.txt
	$(GO) run ./cmd/rumbench -exp qdsweep -quick -n 2048 -ops 1000 \
		-parallel 8 >/tmp/qd-par.txt
	diff /tmp/qd-seq.txt /tmp/qd-par.txt

## drift-smoke: the workload-observability determinism gate — the drift
## experiment (12 fingerprint windows, drift latches, advisor verdicts)
## must render byte-identical stdout at any pool width.
drift-smoke:
	$(GO) run ./cmd/rumbench -exp drift -parallel 1 >/tmp/drift-seq.txt
	$(GO) run ./cmd/rumbench -exp drift -parallel 8 >/tmp/drift-par.txt
	diff /tmp/drift-seq.txt /tmp/drift-par.txt

## benchjson: regenerate BENCH_10.json, the machine-readable per-cell perf
## summary (ops per 1000 medium-weighted cost units for every walsweep and
## qdsweep cell). Deterministic — no wall-clock — so CI diffs it against
## the committed artifact and the bench trajectory accumulates across PRs.
benchjson:
	$(GO) run ./cmd/rumbench -exp walsweep,qdsweep -quick -n 2048 -ops 1000 \
		-benchjson BENCH_10.json >/dev/null

## mvcc-race: the single-writer/many-reader packages under the race
## detector alone — quicker signal than the full `race` target when
## iterating on the snapshot path.
mvcc-race:
	$(GO) test -race ./internal/serve ./internal/btree ./internal/lsm

## serve-live-smoke: the live telemetry plane end to end — start rumserve
## on an ephemeral port, scrape /healthz, /metrics and /debug/rum, assert
## the rum_* series are present, and require a clean SIGINT shutdown with
## a final report.
serve-live-smoke:
	$(GO) build -o /tmp/rumserve-smoke ./cmd/rumserve
	./scripts/serve-live-smoke.sh /tmp/rumserve-smoke
