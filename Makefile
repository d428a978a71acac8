GO ?= go

# The rekey sweep behind BENCH_rekey.json and the bench-diff gate.
SWEEP_FLAGS ?= -sizes 2..8 -batch 3

# Messages per sweep point for the bulk-throughput gate; the checked-in
# baseline uses the default.
BULK_COUNT ?= 20000

.PHONY: check fmt vet build test race chaos chaos-tcp chaos-tcp-short bench-exp \
	bench-obs bench-rekey bench-report bench-diff bench-wire bench-wire-diff \
	bench-bulk bench-bulk-diff bench-pair obs-smoke mon-smoke crit-smoke

## check: the full local gate — gofmt, vet, build, tests, the race suite on
## the packages with concurrency-sensitive fast paths, a short chaos schedule
## replayed over real TCP sockets, the causal-order gate, and the
## regression gates against the checked-in baselines (rekey latency, the
## data-plane wire sweep, and bulk throughput).
check: fmt vet build test race chaos-tcp-short crit-smoke bench-diff bench-wire-diff bench-bulk-diff

## fmt: fails when any Go file in the tree (tracked, or new and not
## ignored) is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l $$(git ls-files --cached --others --exclude-standard '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/dh ./internal/cliques ./internal/ckd \
		./internal/kga/... ./internal/crypt \
		./internal/spread ./internal/flush ./internal/core \
		./internal/transport/... ./internal/obs/... ./cmd/sgcmon

## chaos: the deterministic fault-schedule matrix (8 seeds x 2 protocols,
## 6 cluster-wide invariants) under the race detector. A failing seed
## reproduces with: go test ./internal/chaos -run TestChaos -chaos.seed=N
chaos:
	$(GO) test -race -timeout 3000s ./internal/chaos

## chaos-tcp: seeded fault schedules (partition/heal, crash/restart, link
## reset under load) replayed over real TCP sockets through the faultnet
## relay, under the race detector — the redial supervisor, bounded send
## queues, and peer-down eviction all run against live kernel connections.
chaos-tcp:
	$(GO) test -race -timeout 600s -count=1 ./internal/chaos -run TestChaosTCP -v

## chaos-tcp-short: the make-check smoke — one short reset-heavy TCP
## schedule, sized to finish in seconds.
chaos-tcp-short:
	$(GO) test -timeout 120s -count=1 ./internal/chaos -run TestChaosTCPShort

## bench-exp: regenerate BENCH_exp.json (fixed-base speedup, batch-pool
## scaling, Seal/Open pooling cost).
bench-exp:
	$(GO) test -run TestWriteBenchExpJSON -v .

## bench-obs: regenerate BENCH_obs.json (per-class rekey-latency and
## flush-round histograms from a deterministic chaos run).
bench-obs:
	$(GO) run ./cmd/sgcbench -chaos -seed 1 -events 33 -obs-out BENCH_obs.json

## bench-rekey: regenerate the checked-in BENCH_rekey.json baseline (live
## rekey sweep over both protocols, phase-decomposed by the trace analyzer).
bench-rekey:
	$(GO) run ./cmd/sgcbench $(SWEEP_FLAGS) -rekey-out BENCH_rekey.json

## bench-report: render the checked-in phase-decomposition baseline.
bench-report:
	$(GO) run ./cmd/sgctrace report BENCH_rekey.json

## bench-diff: the regression gate — rerun the sweep and compare it against
## the checked-in baseline; exits nonzero when a tracked metric regressed
## (exponentiation counts exactly, timings by ratio with a noise floor).
bench-diff:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/sgcbench $(SWEEP_FLAGS) -rekey-out $$tmp >/dev/null && \
	$(GO) run ./cmd/sgctrace diff BENCH_rekey.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

## bench-wire: regenerate the checked-in BENCH_wire.json baseline (wire
## codec microbench per kind, codec vs the legacy gob path, plus the
## message-latency-vs-size sweep over the live secure stack).
bench-wire:
	$(GO) run ./cmd/sgcbench -wire -wire-out BENCH_wire.json

## bench-wire-diff: the data-plane regression gate — rerun the wire sweep
## and compare it against the checked-in baseline; encoded frame sizes
## gate exactly (they are deterministic codec properties), encode/decode
## nanoseconds and end-to-end latency by a generous ratio with noise
## floors.
bench-wire-diff:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/sgcbench -wire -wire-out $$tmp >/dev/null && \
	$(GO) run ./cmd/sgctrace diff BENCH_wire.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

## bench-bulk: regenerate the checked-in BENCH_throughput.json baseline
## (sustained encrypted AGREED multicast rate over message sizes, cipher
## suites and group sizes, best of several runs per point).
bench-bulk:
	$(GO) run ./cmd/sgcbench -bulk -bulk-count $(BULK_COUNT) -bulk-out BENCH_throughput.json

## bench-bulk-diff: the throughput regression gate — rerun the bulk sweep
## and compare it against the checked-in baseline; fails when any cell's
## delivery rate collapses below baseline/ratio (throughput gates
## downward, unlike the timing gates).
bench-bulk-diff:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/sgcbench -bulk -bulk-count $(BULK_COUNT) -bulk-out $$tmp >/dev/null && \
	$(GO) run ./cmd/sgctrace diff BENCH_throughput.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

## bench-pair: N alternating pairs of end-to-end perfbench runs of workload
## W, revision BASE (default HEAD: the parent of uncommitted changes)
## against the working tree, summarized as per-metric medians, quartiles
## and win counts. Not part of check: one pair takes about a minute.
## Example: make bench-pair W=remote-small N=10 BASE=HEAD~1
W ?= remote-small
N ?= 10
BASE ?= HEAD
bench-pair:
	./scripts/benchpair.sh $(BASE) $(W) $(N)

## crit-smoke: the causal-order gate — the happens-before checker's unit
## suite plus pinned chaos schedules replayed in-memory, with host clocks
## skewed seconds apart, and over real TCP, all of which must satisfy
## invariant I6; the trace analyzer must also extract a fully-connected
## rekey critical path from a live run.
crit-smoke:
	$(GO) test -timeout 300s -count=1 ./internal/obs/causal ./internal/chaos \
		-run 'TestHappensBefore|TestCheck|TestCriticalPath|TestLookup|TestBuild|TestChaosCausalDifferential|TestChaosCriticalPathConnected'

## obs-smoke: boot a 3-daemon TCP cluster with -debug-addr and embedded
## secure clients, curl the introspection endpoints, then run the sgctrace
## collect -> report pipeline and assert a fully-phased join rekey.
obs-smoke:
	./scripts/obs-smoke.sh

## mon-smoke: the live-monitoring gate — 3-daemon TCP cluster with
## streaming telemetry and armed flight recorders; sgcmon's one-shot
## evaluation must pass on the healthy fleet (exit 0), alert after a
## daemon is killed (exit 3), and the survivors' flight bundles must
## re-read through sgctrace report.
mon-smoke:
	./scripts/mon-smoke.sh
