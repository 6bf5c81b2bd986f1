# Development entry points. CI runs the same commands (.github/workflows/ci.yml).

GO        ?= go
BENCHTIME ?= 2s

.PHONY: all build test race lint bench bench-check ab hunt load load-check load-million fuzz xcheck dpor-audit clean

# Load-run knobs for make load; see cmd/syncload -h for the full set.
LOAD_RATE     ?= 2000
LOAD_DURATION ?= 2s

all: lint build test

build:
	$(GO) build ./...

# perfbench/ is its own module (it imports this one through a replace
# directive), so ./... does not reach it; its tests pin the benchmark's
# determinism self-check and its planted-wrong-verdict gate.
test:
	$(GO) test ./...
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -race ./...

race:
	$(GO) test -race ./...

lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/synclint ./...

# bench runs the E1 exploration benchmarks — throughput variants, the
# deep-DFS batch/stream rows, and the prune/DPOR
# schedules-to-finding/-exhaustion hunts — plus the simulated kernel's
# context-switch benchmark, the random policy's reseed-and-pick cost
# (BenchmarkRandomPolicy), the synth derived oracle's cost per judged
# run (BenchmarkSynthCheck) and on traces of 3000 to 12000 events,
# beside the rescanning reference it replaced (BenchmarkSynthCheckLong),
# one generated run on a recycled kernel slot per mechanism
# (BenchmarkSynthRun; 0 allocs/op), interval pairing's, for one process
# in series and for 256 requests in flight
# (BenchmarkIntervalsReconstruction), the exclusion judge's overlap scan
# and the priority judges' release-window walk on a closed-loop
# readers/writers trace and on 8-way overlap, each beside the all-pairs
# loop it replaced (BenchmarkOverlappingPairs, BenchmarkOvertakings),
# and DPOR's race pass, one expand of a recorded hunt run at depth 40
# and with no bound, beside the vector-clock reference it replaced
# (BenchmarkDPORRacePass). It archives the numbers (ns/op, B/op, allocs/op, schedules/sec,
# schedules-to-finding and schedules-to-exhaustion per variant;
# switches/sec for the kernel) into BENCH_explore.json. An exhaustion
# row fails unless the search is Exhausted: the frontier emptied and no
# run was cut. The file is a committed baseline: benchjson merges fresh
# runs into it line by line instead of overwriting, so a partial -bench
# filter never loses the other variants. Override BENCHTIME (e.g.
# BENCHTIME=1x) for a smoke run. -p 1 runs one package's benchmarks at a
# time, so no package's build or benchmark competes with another's timed
# loop for the CPUs.
BENCHES   := BenchmarkE1|BenchmarkSimContextSwitch|BenchmarkRandomPolicy|BenchmarkSynthCheck|BenchmarkSynthCheckLong|BenchmarkSynthRun|BenchmarkIntervalsReconstruction|BenchmarkOverlappingPairs|BenchmarkOvertakings|BenchmarkDPORRacePass
BENCHPKGS := . ./internal/kernel ./internal/synth ./internal/trace ./internal/explore
bench:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime $(BENCHTIME) -count 1 $(BENCHPKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_explore.json

# bench-check regression-gates a fresh bench run against the committed
# BENCH_explore.json baseline: any variant whose goodness ratio on a
# gated metric (schedules/sec and switches/sec up, schedules-to-finding
# and schedules-to-exhaustion down) falls below TOLERANCE fails. Metrics the baseline predates are skipped, so a
# pre-DPOR baseline never fails a post-DPOR run. CI runs this after
# the bench smoke.
TOLERANCE ?= 0.8
bench-check:
	$(GO) test -p 1 -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime $(BENCHTIME) -count 1 $(BENCHPKGS) \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o bench-fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance $(TOLERANCE) BENCH_explore.json bench-fresh.json

# ab compares this checkout with BASE (any git revision) on perfbench the
# way BENCHMARK.json's gate does: PAIRS pairs of AB_SECONDS-second runs of
# AB_WORKLOAD at AB_SEED, alternating which side runs first, each run's
# JSON line appended to AB_OUT (scripts/ab.sh checks BASE out with git
# worktree in a temporary directory and removes it afterwards). benchjson
# -ab then prints, per end-to-end metric, both medians with quartiles,
# the ratio, wins out of PAIRS and a verdict (gain, worse, unresolved,
# within bound) from the metric's direction and bound. It exits non-zero
# when a metric is worse beyond its bound or a run failed. Pairs append,
# so a second run with the same AB_OUT adds to the first; delete AB_OUT
# to start over.
BASE        ?= HEAD
PAIRS       ?= 10
AB_WORKLOAD ?= fuzz
AB_SEED     ?= 1
AB_SECONDS  ?= 20
AB_OUT      ?= ab.ndjson
ab:
	bash scripts/ab.sh '$(BASE)' $(PAIRS) $(AB_WORKLOAD) $(AB_SEED) $(AB_SECONDS) $(AB_OUT)
	$(GO) run ./cmd/benchjson -ab BENCHMARK.json $(AB_OUT)

# load runs the real-runtime evaluation matrix — every mechanism plus the
# scalable semaphore variants × the canonical problem trio under Poisson
# open-loop and fixed-client closed-loop traffic — traced, oracle-judged,
# prefixed with the histogram-harness calibration, then validated and
# archived as BENCH_load.json by benchjson. BENCH_load.json is a committed
# baseline (load-check gates against it). Two steps so syncload's exit
# code (nonzero on a kernel error or oracle violation) is never swallowed
# by the pipe.
load:
	$(GO) run ./cmd/syncload -mech all,variants -rate $(LOAD_RATE) -duration $(LOAD_DURATION) \
		-calibrate -json -o load-raw.json
	$(GO) run ./cmd/benchjson -load -o BENCH_load.json < load-raw.json

# load-check regression-gates a fresh load run against the committed
# BENCH_load.json baseline, direction-aware: throughput down or per-class
# p99 (wait or total) up beyond LOAD_TOLERANCE fails. Pairings only one
# side ran are skipped. CI refreshes the baseline on the same runner first
# (make load), so the gate measures the code, not the machine; latency
# under real scheduling is noisy, hence the generous default floor.
LOAD_TOLERANCE ?= 0.3
load-check:
	$(GO) run ./cmd/syncload -mech all,variants -rate $(LOAD_RATE) -duration $(LOAD_DURATION) \
		-json -o load-fresh-raw.json
	$(GO) run ./cmd/benchjson -load -o load-fresh.json < load-fresh-raw.json
	$(GO) run ./cmd/benchjson -load-compare -tolerance $(LOAD_TOLERANCE) BENCH_load.json load-fresh.json

# load-million is the million-arrival tier: the generator-exactness test
# scaled to 10^6 arrivals, then a 10^6-op open-loop run per scalable
# semaphore variant on the FCFS resource, untraced (3M trace events would
# dominate memory) and without yield-stretched bodies (an offered rate of
# 10^6/s already outruns the absorb rate, so the open-loop backlog — up to
# a million in-flight procs — is the stress; stretching each op would turn
# the run into a goroutine-hoarding contest instead of a semaphore one).
# The baseline FIFO semaphore is deliberately absent: per-op direct
# hand-off under a ~10^6-deep backlog takes minutes, and its numbers live
# in the standard matrix. Calibrated, archived as BENCH_load_million.json.
load-million:
	LOAD_MILLION=1 $(GO) test -run TestGeneratorSustainsBatchedArrivals -v ./internal/load/
	$(GO) run ./cmd/syncload -mech semaphore-fast,semaphore-striped \
		-problem fcfs -arrival poisson -rate 1000000 -ops 1000000 -duration 0s \
		-yields 0 -trace=false -watchdog 10m -calibrate -json -o load-million-raw.json
	$(GO) run ./cmd/benchjson -load -o BENCH_load_million.json < load-million-raw.json

# fuzz is the generated-corpus smoke: FUZZ_N constraint sets from a fixed
# seed, every mechanism plus the naive-gate control, explored under -race
# with a small budget. Findings are shrunk and sealed into fuzz-artifacts/
# and the deterministic repro-fuzz/v1 summary lands in fuzz-summary.json;
# simtrace -replay then re-verifies every sealed artifact in the same
# invocation, so a sealed schedule that no longer reproduces fails the
# target. The sweep itself exits 0 — findings on the control are the
# point, not a failure.
FUZZ_N    ?= 8
FUZZ_SEED ?= 26
fuzz:
	$(GO) run -race ./cmd/syncfuzz -n $(FUZZ_N) -seed $(FUZZ_SEED) \
		-o fuzz-artifacts -summary fuzz-summary.json
	$(GO) run -race ./cmd/simtrace -replay fuzz-artifacts -quiet

# hunt runs the Figure-1 anomaly search with live progress, shrinks the
# finding to a 1-minimal schedule, and saves it as a replayable artifact
# (exploration exits 1 on a finding — expected here — so the replay step
# is the success check).
hunt:
	-$(GO) run ./cmd/simtrace -mech pathexpr -problem readers-priority \
		-explore -shrink -progress -save-sched figure1-found.sched -quiet
	$(GO) run ./cmd/simtrace -replay figure1-found.sched

# dpor-audit proves the partial-order reduction sound on this tree: the
# full T4 conformance matrix runs with every search doubled — reduced,
# then unreduced at the same budget — and fails if the reduction missed
# any violation rule, then the per-scenario table (T8) reports how many
# runs the depth bound cut and which searches exhausted.
dpor-audit:
	$(GO) test -run TestDPORMatchesFull ./internal/explore/
	$(GO) run ./cmd/evalsync -experiment T8


# directions: -hunt tries to realize every lockorder/lostwakeup finding
# by schedule exploration (exit 0 — confirmed findings on the seeded
# fixture are the expected outcome, reported per row), and -audit
# replays the sealed counterexample corpus against the static pass,
# failing on any deadlock lockorder no longer flags.
xcheck:
	$(GO) run ./cmd/synclint -hunt
	$(GO) run ./cmd/synclint -audit internal/explore/testdata

# BENCH_explore.json and BENCH_load.json are committed baselines, not
# build products, so clean leaves them alone.
clean:
	rm -f load-raw.json load-fresh-raw.json load-fresh.json soak-stream.ndjson \
		load-million-raw.json BENCH_load_million.json bench-fresh.json figure1-found.sched \
		fuzz-summary.json ab.ndjson
	rm -rf fuzz-artifacts
