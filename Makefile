# Tier-1 verification (what CI and every PR must keep green) plus the
# deeper checks the concurrent paths need.

GO ?= go

# Minimum statement coverage for the concurrency-critical packages
# (internal/core, internal/transport). They sit at ~84%/~87%; the floor
# catches a PR that lands untested request-lifecycle code.
COVER_FLOOR ?= 80.0

# Wall-clock ceiling for the fluentvet run: the lint step must stay fast
# enough to run on every build, and the budget catches an analyzer whose
# interprocedural pass goes quadratic (the suite currently finishes in
# ~1s; the ceiling leaves room for cold build caches).
LINT_BUDGET ?= 60s

.PHONY: verify build vet lint lint-baseline lint-self perfbench-vet test race race-debug race-stress race-failover fuzz fuzz-smoke determinism scenarios scenarios-smoke fanout-smoke cover ci bench bench-paper

## verify: the tier-1 gate — vet, build, full test suite.
verify: vet build test

## lint: fluentvet, the project's own ten-analyzer static-analysis suite
## (poolcheck, lockorder, ctxcheck, telcheck, atomiccheck, codeccheck,
## handlercheck, fencecheck, leakcheck). Diff mode against the committed
## lint_baseline.json: only findings absent from the baseline fail.
## Exits non-zero on any new unsuppressed fail-severity finding or when
## analysis exceeds LINT_BUDGET; suppressions (//lint:ignore) are
## reported in a summary table and fail when unused.
lint:
	$(GO) run ./cmd/fluentvet -budget $(LINT_BUDGET) -baseline lint_baseline.json ./...

## lint-baseline: regenerate the committed finding baseline (review the
## diff — every new entry is accepted debt).
lint-baseline:
	$(GO) run ./cmd/fluentvet -write-baseline lint_baseline.json ./...

## lint-self: fluentvet pointed at its own engine and driver — the
## analyzers must satisfy the disciplines they enforce, with no baseline
## to hide behind.
lint-self:
	$(GO) run ./cmd/fluentvet -budget $(LINT_BUDGET) ./internal/lint/... ./cmd/fluentvet/...

## perfbench-vet: go vet and fluentvet on the nested end-to-end benchmark
## module (perfbench/, its own go.mod), which the root ./... patterns of
## vet and lint do not reach.
perfbench-vet:
	cd perfbench && $(GO) vet ./...
	$(GO) run ./cmd/fluentvet -C perfbench ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the request-lifecycle and transport layers are goroutine-heavy
## (receive loops, retry timers, fault-injection timers, reconnects);
## run them under the race detector after touching any of it.
race:
	$(GO) test -race ./internal/core/... ./internal/transport/...

## race-debug: the race run with the fluentdebug assertion layer compiled
## in (internal/core/assert.go): V_train monotonicity, the SSP staleness
## bound on answered pulls, and the DPR-drain/push-condition coupling all
## panic on violation instead of silently corrupting a run.
race-debug:
	$(GO) test -race -tags fluentdebug ./internal/core/... ./internal/transport/...

## race-stress: the striped-store, batched-apply-engine, and RO-snapshot
## stress tests, repeated under the race detector with the fluentdebug
## assertion layer (V_train monotonicity, SSP staleness bound) compiled
## in. These are the only paths where multiple goroutines touch shard
## state concurrently — including readers pulling published snapshots
## while stripes are applied and republished — so they get more
## repetitions than the general race pass.
race-stress:
	$(GO) test -race -tags fluentdebug -count=5 \
		-run 'TestStripedShardConcurrentApply|TestBatchedApplyStress|TestBatchedApplyMatchesExpected|TestSnapshotROStress|TestHandleROOverMux' \
		./internal/kvstore/ ./internal/core/

## race-failover: the elastic-membership and failover integration tests,
## repeated under the race detector. The kill-primary test runs the full
## replicated-shard story over a lossy transport: a primary dies
## mid-training, its backup is promoted, and the exact-sum audit proves
## no update was lost or double-applied across the failover; the
## join/drain tests stream keys through view transitions while workers
## keep training.
race-failover:
	$(GO) test -race -count=5 -timeout 600s \
		-run 'TestFailoverKillServer|TestViewFencingRejectsStaleEpoch|TestLiveJoinServesDuringTransfer|TestDrainMovesKeysWithoutStopping' \
		./internal/core/

## fuzz: a short codec fuzz pass over every wire format — the message
## codec and framer, the mux stream-frame layer, the cluster-view codec,
## the replication-wave frame, and the stats/spec payloads (seed corpora
## cover v1/v2 ShardState and legacy 3-value Spec frames).
fuzz:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadFrame -fuzztime 30s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzMuxFrame -fuzztime 30s
	$(GO) test ./internal/clusterview/ -run '^$$' -fuzz FuzzViewDecode -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeWave -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeShardState -fuzztime 30s
	$(GO) test ./internal/syncmodel/ -run '^$$' -fuzz FuzzDecodeSpec -fuzztime 30s

## fuzz-smoke: the CI-sized fuzz pass — 10s per codec target, enough to
## replay the seed corpus and shake the boundary cases.
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzDecode -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz FuzzMuxFrame -fuzztime 10s
	$(GO) test ./internal/clusterview/ -run '^$$' -fuzz FuzzViewDecode -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeWave -fuzztime 10s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzDecodeShardState -fuzztime 10s
	$(GO) test ./internal/syncmodel/ -run '^$$' -fuzz FuzzDecodeSpec -fuzztime 10s

## determinism: the bit-identical replay properties, repeated under the
## race detector — the scenario simulator (same spec + seed ⇒ identical
## Result, whatever hazards fire) and the apply engine (same workload ⇒
## identical parameters whatever ApplyWorkers is set to).
determinism:
	$(GO) test -race -count=5 -run 'TestScenarioDeterminism' ./internal/sim/
	$(GO) test -race -count=5 -run 'TestApplyWorkersDeterminism' ./internal/core/

## scenarios: the full-scale scenario matrix — every sync policy ×
## topology × fault plan at up to 1024 simulated workers, 5 seed
## replicates per cell (~30s). The JSON scorecard lands in
## BENCH_scenarios.json; the per-group adaptive-vs-best-fixed digest
## prints to stderr.
scenarios:
	$(GO) run ./cmd/fluentbench -scenarios > BENCH_scenarios.json

## scenarios-smoke: the CI tier of the matrix — the same grid at pruned
## scale with the golden-score regression gate and the ≥80% adaptive
## dominance gate (see internal/experiments/scenarios_test.go).
scenarios-smoke:
	$(GO) test -count=1 -run 'TestScenario' ./internal/experiments/

## fanout-smoke: the read-tier acceptance gates at CI scale — the quick
## fan-out matrix (RO snapshot pulls vs locked data-plane pulls against
## one pushing trainer) must show RO throughput scaling ≥4× from 1 to 64
## readers with the trainer's push p99 within 1.25× of the reader-free
## baseline.
fanout-smoke:
	FLUENTPS_FANOUT_STRICT=1 $(GO) test -count=1 -run 'TestFanoutSmoke' ./internal/experiments/

## cover: statement coverage for the request-lifecycle packages, failing
## below COVER_FLOOR percent.
cover:
	@for pkg in ./internal/core/ ./internal/transport/; do \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN{exit !(p+0 >= f+0)}'; then \
			echo "FAIL: coverage $$pct% of $$pkg is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
	done

## ci: the full pre-merge gate — vet + build + tests, fluentvet in
## baseline-diff mode plus its self-analysis pass, vet and fluentvet over
## the nested perfbench module, the race detector over
## everything (plus a fluentdebug assertion pass), the determinism replay
## properties, the scenario-matrix smoke tier with its golden and
## dominance gates, a codec fuzz smoke, the adaptive-regret acceptance
## gate, and the coverage floor.
ci: verify
	$(MAKE) lint
	$(MAKE) lint-self
	$(MAKE) perfbench-vet
	$(GO) test -count=1 -run 'TestAdaptiveSweep' ./internal/experiments/
	$(MAKE) scenarios-smoke
	$(MAKE) fanout-smoke
	$(GO) test -race ./...
	$(MAKE) race-debug
	$(MAKE) race-stress
	$(MAKE) race-failover
	$(MAKE) determinism
	$(MAKE) fuzz-smoke
	$(MAKE) cover

## bench: the hot-path microbenchmarks — encode→send→apply with pooled
## frames and the end-to-end push/pull step — with allocation counts.
## Machine-readable results land in BENCH_hotpath.json (go test -json);
## BENCH_telemetry.json isolates the telemetry overhead: the same
## push/pull step with a live registry vs the Nop sink vs no telemetry,
## plus the per-instrument costs (counter add, histogram observe).
## BENCH_apply.json contrasts push-apply throughput with the serial apply
## loop (ApplyWorkers=1) against the wave-batched engine (ApplyWorkers=4)
## — the batched path must hold a ≥2x edge on large segments.
## BENCH_adaptive.json records the adaptive-vs-fixed regret sweep: for each
## heterogeneous trace, the timed regret and throughput of Adaptive against
## every fixed preset (BSP, ASP, SSP(s) swept) plus the hindsight-best ratio.
## BENCH_scenarios.json is the full-scale scenario-matrix scorecard (see
## `make scenarios`).
## BENCH_fanout.json is the read-tier fan-out sweep: RO snapshot pulls vs
## locked data-plane pulls at 1..64 readers, with the scaling and push-p99
## acceptance gates.
bench:
	$(GO) test -run '^$$' -bench 'PushPullHotPath$$|FrameRoundTrip|WriteFrame|DecodeInto' \
		-benchmem -json ./internal/core/ ./internal/transport/ > BENCH_hotpath.json
	$(GO) test -run '^$$' -bench 'PushPullHotPath|CounterInc|GaugeSet|HistogramObserve' \
		-benchmem -json ./internal/core/ ./internal/telemetry/ > BENCH_telemetry.json
	$(GO) test -run '^$$' -bench 'ApplyThroughput|AxpyBatch' -benchtime 2s \
		-benchmem -json ./internal/core/ ./internal/mathx/ > BENCH_apply.json
	$(GO) run ./cmd/fluentbench -adaptive > BENCH_adaptive.json
	$(GO) run ./cmd/fluentbench -scenarios > BENCH_scenarios.json
	$(GO) run ./cmd/fluentbench -fanout > BENCH_fanout.json
	@sed -n 's/.*"Output":"\(.*\)".*/\1/p' BENCH_hotpath.json BENCH_telemetry.json BENCH_apply.json | tr -d '\n' | \
		sed 's/\\n/\n/g; s/\\t/\t/g' | grep 'allocs/op'

## bench-paper: every benchmark in the repo once over (smoke, not timing).
bench-paper:
	$(GO) test -bench . -benchtime 1x ./...
