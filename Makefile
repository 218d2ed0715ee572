# goflay build/test tiers. The module is stdlib-only; everything here
# is plain go toolchain invocations.

GO ?= go

# Coverage floor for the engine packages gated by `make cover`.
COVER_MIN ?= 70
COVER_PKGS = ./internal/core ./internal/sym ./internal/dd ./internal/obs ./internal/controlplane ./internal/server ./internal/wire ./internal/wire/binproto ./internal/cluster ./internal/trace ./internal/fuzz ./internal/progs ./internal/dpexec

# Seconds of native fuzzing per target in the `make race` smoke.
FUZZ_SMOKE ?= 5s

.PHONY: all help build test race fmt-check bench bench-e2e cover loc fuzz-smoke torture-smoke dd-smoke spine-smoke tier1 soak soak-churn soak-churn-smoke soak-cluster soak-cluster-smoke

# Soak-run knobs: where the daemon listens and how many updates
# flayload drives through it.
SOAK_ADDR ?= 127.0.0.1:9444
SOAK_N    ?= 5000

# Churn-soak knobs: per-program update budget and per-pattern cycle
# length. The defaults are the CI-scale run (minutes); raise
# SOAK_CHURN_UPDATES into the millions for an hours-long soak with the
# same assertions (see EXPERIMENTS.md, "churn soak").
SOAK_CHURN_ADDR    ?= 127.0.0.1:9446
SOAK_CHURN_UPDATES ?= 24000
SOAK_CHURN_CYCLE   ?= 1000

# Cluster-soak knobs: the front's address, how many concurrent
# sessions the swarm holds on the fleet, the total update budget split
# across them, and the client-side concurrency cap. The defaults are
# the headline run from EXPERIMENTS.md: 10k concurrent sessions of
# mixed read/write load through the front (minutes on one core).
SOAK_CLUSTER_FRONT    ?= 127.0.0.1:9450
SOAK_CLUSTER_SESSIONS ?= 10000
SOAK_CLUSTER_N        ?= 100000
SOAK_CLUSTER_WORKERS  ?= 512

all: tier1

help:
	@echo "goflay make targets:"
	@echo "  tier1       build + test (the baseline gate; default)"
	@echo "  race        gofmt check + vet + race-detector suite + fuzz smoke (slow, load-bearing)"
	@echo "  fmt-check   fails if gofmt -l lists any file"
	@echo "  cover       per-package coverage, fails under $(COVER_MIN)% for any of COVER_PKGS:"
	@echo "              $(COVER_PKGS)"
	@echo "  bench-e2e   THE benchmark (bench/, BENCHMARK.json): four workloads, six end-to-end"
	@echo "              metrics each, correctness-gated; one stamped JSON line per workload."
	@echo "              Performance claims are judged here and nowhere else; pass flags with"
	@echo "              BENCH_ARGS='-seed 2 -trace 1', append to bench/history.jsonl with"
	@echo "              BENCH_ARGS=-record"
	@echo "  bench       run the Go benchmarks"
	@echo "  loc         added, removed and net lines of non-test Go files per package,"
	@echo "              from BASE (default HEAD) to the work tree, untracked files included"
	@echo "  torture-smoke  epoch-read and image hot-swap torture tests, smoke slice, and the image suite, under -race"
	@echo "  spine-smoke the read-lock differential check beside a writer (table spines must"
	@echo "              not be written under the read lock), -race -count=3"
	@echo "  fuzz-smoke  $(FUZZ_SMOKE) of native fuzzing per target (FuzzP4Parse, FuzzSolver, FuzzSolverOracle,"
	@echo "              FuzzChainMatchesFresh, FuzzSnapshot, FuzzWireDecode, FuzzExecCodec, FuzzBinFrameDecode,"
	@echo "              FuzzDpexecVsBmv2, FuzzSpecializedVsOriginal)"
	@echo "  soak        build flayd+flayload, drive $(SOAK_N) updates, SIGTERM, assert clean exit + snapshot"
	@echo "  soak-churn  long-horizon churn soak: flaysoak drives $(SOAK_CHURN_UPDATES) updates/program of"
	@echo "              trace-driven churn through flayd, gating flat memory, stable p99,"
	@echo "              audit-seq continuity and zero unsound verdicts"
	@echo "  soak-cluster  fleet soak: 3 flayd shards (each with a replicating standby)"
	@echo "              behind flayfront; flayload swarm mode holds $(SOAK_CLUSTER_SESSIONS) concurrent"
	@echo "              sessions of mixed read/write load through the front and gates"
	@echo "              exact per-session accounting (zero lost writes, zero rejects)"

# Tier-1: the baseline gate every change must keep green.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tier: vet plus the full suite under the race detector, plus a
# short native-fuzz smoke of the frontend and the solver. The
# equivalence suites in internal/core hold the batch shape of the update
# path to the sequential one (the engine has no worker pool: a pass is
# one loop on the caller's goroutine), and under the detector they are
# what races the wait-free readers, the audit capture path and the
# degrade/promote matrix against the one writer — so this tier is slow
# (minutes) but load-bearing. The explicit timeout covers single-core
# machines, where the race detector gets no parallelism to hide behind
# and internal/core alone can exceed go test's 10m default.
RACE_TIMEOUT ?= 45m
race: fmt-check fuzz-smoke soak-churn-smoke soak-cluster-smoke torture-smoke dd-smoke spine-smoke
	$(GO) vet ./...
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# fmt-check: the tree is gofmt-clean. First in the race tier: it takes a
# second and the rest takes minutes.
fmt-check:
	@out=$$(gofmt -l .); \
	test -z "$$out" || { echo "FAIL: gofmt -l lists:"; echo "$$out"; exit 1; }

# torture-smoke: the epoch-read concurrency torture suite's smoke
# slice, the executable-image hot swap and the image suite under the
# race detector, run first so a broken lock-free read path or image
# swap fails fast instead of at the end of the full -race sweep. A
# recompiled image shares the chunks it carried with the images
# executors are still reading. The full suite (long mode, GOMAXPROCS
# grid) runs without -short inside `make race`'s package sweep above.
torture-smoke:
	$(GO) test -race -short -run 'TestTortureConcurrency|TestTortureHotSwap|TestImageParityAtEveryPublication|TestImageInstrumentsFollowDecisions|TestRespecializationCompilesWhatFlipped' ./internal/core

# dd-smoke: one engine held to the enumeration oracle under the race
# detector — after every update of the catalog streams, across a
# snapshot round trip, and after every Degrade and degraded update —
# run early so a verdict the decision procedure gets wrong (or a data
# race on the store pointer Statistics samples) fails fast. The churn
# matrix runs in the package sweep above.
dd-smoke:
	$(GO) test -race -run 'TestDDMatchesSolverCatalog|TestDDSnapshotPreservesVariableOrder|TestDegradePromoteMatrix' ./internal/core

# spine-smoke: DifferentialCheck holds only the engine's read lock and
# compiles the degraded tables precisely, from as many goroutines as
# call it; that path must read a table's spine (controlplane chain.go)
# and never write it. Three repetitions under the race detector, beside
# a writer that keeps splicing the spines.
spine-smoke:
	$(GO) test -race -count=3 -run 'TestDifferentialCheckBesideWriter' ./internal/core

# fuzz-smoke: FuzzSnapshot seals the payloads it mutates, so new
# coverage is found from the first second; -fuzzminimizetime=1x keeps the
# smoke from spending its few seconds minimizing 1 KB inputs instead of
# running them.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzP4Parse -fuzztime=$(FUZZ_SMOKE) ./internal/p4/parser
	$(GO) test -run='^$$' -fuzz='^FuzzSolver$$' -fuzztime=$(FUZZ_SMOKE) ./internal/sym
	$(GO) test -run='^$$' -fuzz='^FuzzSolverOracle$$' -fuzztime=$(FUZZ_SMOKE) ./internal/sym
	$(GO) test -run='^$$' -fuzz=FuzzChainMatchesFresh -fuzztime=$(FUZZ_SMOKE) ./internal/controlplane
	$(GO) test -run='^$$' -fuzz=FuzzSnapshot -fuzztime=$(FUZZ_SMOKE) -fuzzminimizetime=1x ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=$(FUZZ_SMOKE) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzExecCodec -fuzztime=$(FUZZ_SMOKE) ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzBinFrameDecode -fuzztime=$(FUZZ_SMOKE) ./internal/wire/binproto
	$(GO) test -run='^$$' -fuzz=FuzzDpexecVsBmv2 -fuzztime=$(FUZZ_SMOKE) ./internal/dpexec
	$(GO) test -run='^$$' -fuzz=FuzzSpecializedVsOriginal -fuzztime=$(FUZZ_SMOKE) ./internal/dpexec

# soak: the daemon's operational acceptance loop as a make target.
# Builds flayd and flayload, boots the daemon with a snapshot dir,
# drives SOAK_N updates through the wire API (mixed single + batched,
# with 429 retry), then SIGTERMs the daemon and requires (a) exit
# status 0 and (b) a session snapshot on disk — i.e. graceful drain
# actually persisted the warm state.
soak:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/flayd ./cmd/flayd; \
	$(GO) build -o $$tmp/flayload ./cmd/flayload; \
	$$tmp/flayd -addr $(SOAK_ADDR) -snapshot-dir $$tmp/snap & pid=$$!; \
	$$tmp/flayload -addr $(SOAK_ADDR) -session soak -program scion -n $(SOAK_N); \
	kill -TERM $$pid; \
	wait $$pid || { echo "FAIL: flayd exited non-zero after SIGTERM"; exit 1; }; \
	test -s $$tmp/snap/soak.snap || { echo "FAIL: no snapshot after graceful shutdown"; exit 1; }; \
	echo "soak OK: clean exit, snapshot $$(wc -c < $$tmp/snap/soak.snap) bytes"

# soak-churn: the long-horizon churn tier. Boots flayd, then flaysoak
# replays every churn pattern against every production-shaped catalog
# program in baseline-restoring cycles and enforces the soak gates
# (flat heap watermark, stable interval p99, gapless audit sequences,
# zero rejected updates, zero unsound degraded verdicts). Time-scaled:
# the default budget finishes in CI minutes; SOAK_CHURN_UPDATES scales
# the same run to hours.
soak-churn:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/flayd ./cmd/flayd; \
	$(GO) build -o $$tmp/flaysoak ./cmd/flaysoak; \
	$$tmp/flayd -addr $(SOAK_CHURN_ADDR) & pid=$$!; \
	$$tmp/flaysoak -addr $(SOAK_CHURN_ADDR) -updates $(SOAK_CHURN_UPDATES) -cycle $(SOAK_CHURN_CYCLE) \
		|| { kill -TERM $$pid; wait $$pid; exit 1; }; \
	kill -TERM $$pid; \
	wait $$pid || { echo "FAIL: flayd exited non-zero after SIGTERM"; exit 1; }; \
	echo "soak-churn OK"

# A seconds-scale slice of the churn soak, run as part of `make race`
# so the soak harness itself can never rot.
soak-churn-smoke:
	$(MAKE) soak-churn SOAK_CHURN_UPDATES=2400 SOAK_CHURN_CYCLE=200 SOAK_CHURN_ADDR=127.0.0.1:9447

# soak-cluster: the fleet's operational acceptance loop. Boots three
# active flayd shards, each with its own binary listener and a standby
# it replicates to, puts flayfront in front of them, and runs flayload
# in swarm mode: SOAK_CLUSTER_SESSIONS concurrent sessions (the names
# consistent-hash across the shards) of mixed read/write load driven
# through the front, finishing with an exact per-session accounting
# check — every session must report its full share of updates applied
# and zero rejects, i.e. no accepted write was lost anywhere in the
# fleet. Every process must then exit 0 on SIGTERM.
soak-cluster:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/flayd ./cmd/flayd; \
	$(GO) build -o $$tmp/flayfront ./cmd/flayfront; \
	$(GO) build -o $$tmp/flayload ./cmd/flayload; \
	pids=""; \
	for i in 1 2 3; do \
		$$tmp/flayd -addr 127.0.0.1:947$$i -standby & pids="$$pids $$!"; \
		$$tmp/flayd -addr 127.0.0.1:945$$i -bin-addr 127.0.0.1:946$$i \
			-replicate-to http://127.0.0.1:947$$i & pids="$$pids $$!"; \
	done; \
	sleep 1; \
	$$tmp/flayfront -addr $(SOAK_CLUSTER_FRONT) \
		-shard name=shard-1,addr=http://127.0.0.1:9451,bin=127.0.0.1:9461,standby=http://127.0.0.1:9471 \
		-shard name=shard-2,addr=http://127.0.0.1:9452,bin=127.0.0.1:9462,standby=http://127.0.0.1:9472 \
		-shard name=shard-3,addr=http://127.0.0.1:9453,bin=127.0.0.1:9463,standby=http://127.0.0.1:9473 \
		& pids="$$pids $$!"; \
	$$tmp/flayload -addr $(SOAK_CLUSTER_FRONT) -session swarm -program fig3 \
		-sessions $(SOAK_CLUSTER_SESSIONS) -n $(SOAK_CLUSTER_N) -workers $(SOAK_CLUSTER_WORKERS) \
		-batch 4 -read-every 1 \
		|| { kill -TERM $$pids; exit 1; }; \
	kill -TERM $$pids; \
	fail=0; for p in $$pids; do wait $$p || { echo "FAIL: pid $$p exited non-zero after SIGTERM"; fail=1; }; done; \
	test $$fail -eq 0; \
	echo "soak-cluster OK: $(SOAK_CLUSTER_SESSIONS) sessions, exact accounting across the fleet"

# A seconds-scale slice of the cluster soak, run as part of `make
# race` so the fleet harness (flayfront routing, swarm accounting,
# shard replication) can never rot.
soak-cluster-smoke:
	$(MAKE) soak-cluster SOAK_CLUSTER_SESSIONS=300 SOAK_CLUSTER_N=6000 SOAK_CLUSTER_WORKERS=64

bench:
	$(GO) test -bench=. -benchmem .

# bench-e2e: the repository's one benchmark (bench/README.md). Builds
# the command from this checkout and runs all four workloads; every
# performance claim is a paired comparison of this command's output on
# two commits. `go run ./cmd/flaybench` prints the paper's tables and
# figures; it gates nothing.
BENCH_ARGS ?=
bench-e2e:
	bench/run.sh run $(BENCH_ARGS)

# loc: the size of a change in program code. Per package (directory),
# the lines of non-_test.go Go files added and removed between BASE and
# the work tree (git diff --numstat), with files git does not track yet
# counted as added whole.
BASE ?= HEAD
loc:
	@{ git diff --numstat --no-renames $(BASE) -- '*.go'; \
	   git ls-files --others --exclude-standard -- '*.go' | while read -r f; do \
		printf '%s\t0\t%s\n' "$$(wc -l < "$$f")" "$$f"; done; } | \
	awk -F'\t' 'BEGIN { printf "%-36s %7s %7s %7s\n", "package", "added", "removed", "net" } \
	$$3 !~ /_test\.go$$/ { \
		d = $$3; sub(/\/[^\/]*$$/, "", d); if (d == $$3) d = "."; \
		add[d] += $$1; del[d] += $$2; ta += $$1; td += $$2 } \
	END { for (d in add) printf "%-36s %+7d %+7d %+7d\n", d, add[d], -del[d], add[d] - del[d] | "sort"; \
		close("sort"); printf "%-36s %+7d %+7d %+7d\n", "total", ta, -td, ta - td }'

# cover: enforce the coverage floor on the engine packages. Written
# for a POSIX shell (no pipefail): the summary goes to a temp file and
# the gate parses it afterwards.
cover:
	@tmp=$$(mktemp); \
	$(GO) test -cover $(COVER_PKGS) > $$tmp || { cat $$tmp; rm -f $$tmp; exit 1; }; \
	cat $$tmp; \
	fail=0; \
	while read -r line; do \
		case "$$line" in \
		*"coverage: "*) \
			pct=$${line##*coverage: }; pct=$${pct%%.*}; \
			if [ "$$pct" -lt "$(COVER_MIN)" ]; then \
				echo "FAIL: coverage $$pct% < $(COVER_MIN)%: $$line"; fail=1; \
			fi ;; \
		esac; \
	done < $$tmp; \
	rm -f $$tmp; \
	exit $$fail
