GO ?= go

.PHONY: check build fmt vet test allocs fidelity benchmark-test lines pairs profile stress pgo determinism audit fuzz serve-smoke obs-smoke chaos-smoke dist-smoke

# Tier-1 gate: everything must pass before a change lands. `test` runs
# -race over every package — including the determinism goldens, the
# gated-twin differentials and the five real-binary ipcpd smokes in
# cmd/ipcpd, so the standalone determinism / *-smoke targets below are
# for running one gate alone and are not prerequisites here. allocs
# runs the allocation gates a -race build leaves out, and fidelity the
# paper-shape gate, too slow under the race detector; benchmark-test
# runs the benchmark module's own tests, which `test` does not reach.
# Some tests run twice: audit runs the full differential suite
# (AUDIT_FULL=1), of which `test` runs a subset, and fuzz replays each
# target's seed corpus before fuzzing.
check: build fmt vet test allocs fidelity benchmark-test audit fuzz

build:
	$(GO) build ./...

# gofmt is the only accepted formatting: any file it would rewrite
# fails (`gofmt -l .`, minus the benchmark's git-ignored build cache).
fmt:
	@out=$$(find . -name .bench_build -prune -o -name '*.go' -print | xargs gofmt -l); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -race ./...

# The zero-allocation and allocation-budget gates of internal/sim are
# //go:build !race (the race detector allocates on its own), so `test`
# never builds them.
allocs:
	$(GO) test ./internal/sim -run 'ZeroAllocs|AllocationBudget' -count=1

# The paper's shape as a gate (internal/experiments/shape_test.go): a
# dozen experiments at Quick scale, each table held to the shape the
# paper reports, bar the recorded expected failures (~20 s); and knob
# liveness (liveness_test.go): every sensitivity/ablation row's count of
# runs that differ from the default row, held to
# testdata/liveness.golden (~5 s more, sharing the Quick session). Both
# are //go:build !race, like the allocation gates, so `test` never
# builds them.
fidelity:
	$(GO) test ./internal/experiments -run '^(TestShape|TestKnobsMove)$$' -count=1

# The benchmark is its own Go module (benchmark/go.mod), so `go test
# ./...` at the root never builds it. Its layer drivers construct
# cache.New / cpu.New / dram.New and drive AddRead / Cycle / NextEvent /
# ReturnData directly, and its smoke test runs every workload once
# against the real binaries (~20 s): a change to those signatures, to a
# CLI flag or to a result field breaks here.
benchmark-test:
	cd benchmark && $(GO) test ./...

# Non-test Go lines outside benchmark/: the number ROADMAP's line budget
# and every simplicity change quote; then the same count per top-level
# package directory (internal/serve, cmd/ipcpd, . for the root package),
# largest first, so a change can quote its per-package delta.
LINES_FIND = find . \( -path ./benchmark -o -name .bench_build -o -name .git \) -prune -o -name '*.go' ! -name '*_test.go' -print
lines:
	@$(LINES_FIND) | xargs cat | wc -l
	@$(LINES_FIND) | xargs wc -l | awk '$$2 != "total" { split($$2, p, "/"); n[p[3] == "" || p[2] ~ /\.go$$/ ? "." : p[2] "/" p[3]] += $$1 } END { for (d in n) print n[d], d }' | sort -rn

# The claim procedure for a speed change: N alternating pairs of one
# benchmark workload on the committed files of BASE and on this
# checkout, with per-pair values, wins, medians and quartiles (see
# scripts/pairs.sh). Minutes, not part of `check`.
#   make pairs W=serve_cold BASE=HEAD~1 N=10 S=15
N ?= 10
S ?= 15
pairs:
	@test -n "$(W)" -a -n "$(BASE)" || { echo "usage: make pairs W=<workload> BASE=<rev> [N=10] [S=15]"; exit 2; }
	bash scripts/pairs.sh $(W) $(BASE) $(N) $(S)

# Where one of the benchmark's workloads spends its time: for mix8,
# single_stream and single_pointer, its exact command line over SEEDS
# seeds under -cpuprofile, merged (paper_figs: SEEDS repetitions of the
# experiments CLI's); for serve_repeat and serve_cold, the
# daemon's /debug/pprof/profile over S seconds of the harness-shaped
# client loop; for sweep_grid, the coordinator's and both workers'
# profiles over S seconds of back-to-back 48-point sweeps (see
# scripts/profile.sh).
#   make profile W=mix8 SEEDS=30
#   make profile W=serve_repeat S=15
#   make profile W=sweep_grid S=15
SEEDS ?= 30
profile:
	@test -n "$(W)" || { echo "usage: make profile W=mix8|single_stream|single_pointer|paper_figs [SEEDS=30] | W=serve_repeat|serve_cold|sweep_grid [S=15]"; exit 2; }
	bash scripts/profile.sh $(W) $(if $(filter serve_% sweep_grid,$(W)),$(S),$(SEEDS))

# The concurrency-sensitive tests, repeated: the session's single-flight
# memo (join, hand-over from a cancelled leader, eviction against
# concurrent forks, write-behind), the concurrent experiments runner
# (RunIDs: a cancellation landing while several experiments fan out) and
# the daemon's watchdog, coalescing and experiments-job cancellation. -race reports only the interleavings
# a run actually takes, and the windows these tests guard are
# microseconds wide (a terminal event against its counter bump, a
# leader's cancel against a waiter's join, a job's deadline against the
# simulations it is fanning out), so one `make test` pass almost always
# takes the benign order; COUNT passes give the scheduler COUNT chances
# at the other. One pass of either package takes ~10 s under -race on
# 2 vCPUs, so the deadline scales with COUNT (30 s a pass) instead of go
# test's fixed 10 min. Not part of `check`.
#   make stress COUNT=200
COUNT ?= 50
stress:
	$(GO) test -race -count=$(COUNT) -timeout=$$(($(COUNT) * 30))s ./internal/experiments -run 'Flight|Coalesce|Evict|Cancelled|WrittenBehind|RunIDs'
	$(GO) test -race -count=$(COUNT) -timeout=$$(($(COUNT) * 30))s ./internal/serve -run 'Watchdog|Coalesce|ExperimentsJob'

# Refresh the profile-guided build: profile single_stream, single_pointer,
# mix8 and paper_figs with the commands above, merge, and write the one
# profile to cmd/{ipcpsim,experiments,ipcpd}/default.pgo, which plain
# `go build` picks up (see scripts/pgo.sh). Seconds; commit the result.
pgo:
	bash scripts/pgo.sh

# Golden equivalence: the committed result digests (the absolute
# golden), the wake-gated scheduler vs the clock-everything
# reference, run-to-run repeatability, fork-vs-cold and the fork path
# gated vs reference, on 1/2/4/8-core systems, and every reader of the
# lazily settled per-cycle counters; then the per-component gated-twin
# differentials that hold each NextEvent and each settle-on-touch to its
# contract cycle by cycle; then every registered experiment's rendered
# table against its committed digest (ReportDigests). Already part of
# `test`; kept as its own target so a perf or refactor change can run
# just this, fast.
determinism:
	$(GO) test ./internal/sim -run 'Determinism|FastForward|ForkGated|EveryStatsReaderSettles|ResultDigests' -count=1
	$(GO) test ./internal/dram ./internal/cache ./internal/cpu -run 'GatedTwin' -count=1
	$(GO) test ./internal/experiments -run 'ReportDigests' -count=1

# Differential audit: every bundled workload through the fully audited
# system (shadow caches + paper-faithful IPCP oracles in lockstep),
# fast-forward on and off, diffed; plus the fork-vs-cold differential
# that holds every warmup-forked run to byte-identity with a cold run.
# No -race: the harness is already several times slower than the plain
# simulation, and `test` covers the subset under -race.
audit:
	AUDIT_FULL=1 $(GO) test ./internal/audit -run 'TestDifferentialSuite|TestDeepThrottleRun|TestForkDifferentialSuite' -count=1

# Brief fuzz passes (longer runs: raise -fuzztime): the trace reader,
# the two frame codecs every durable file goes through (internal/store),
# the checkpoint entry decoder on top of them, the warmup snapshot a fork
# decodes and restores, the one request body both daemons decode
# (POST /v1/runs, every /v1/sweeps point: decode → validate → derived
# keys), and the journaled grid body (POST /v1/sweeps: decode → expand →
# submit record → expand again). `go test -fuzz` takes one fuzz target
# per run. The snapshot
# seeds are ~20 KB, so minimizing each new input is capped: uncapped, it
# takes the whole pass.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzReader$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzUnframe$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzNextRecord$$' -fuzztime=10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime=10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime=10s -fuzzminimizetime=100x
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzRunRequest$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzSweepRequest$$' -fuzztime=10s

# End-to-end daemon smoke: build the real ipcpd binary, boot it on an
# ephemeral port with a cache dir, drive the API, SIGTERM it mid-job
# expecting a clean (exit 0) drain, then reboot over the same cache and
# prove the checkpointed result is served without resimulating.
serve-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestServeSmoke$$' -count=1 -v

# End-to-end observability smoke: boot ipcpd with JSON debug logs and a
# pprof listener, submit a run tagged X-Request-ID: demo, and demand the
# id back on the response header, every related structured log line and
# the Chrome trace; scrape Prometheus metrics; hit buildinfo and pprof.
obs-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestObsSmoke$$' -count=1 -v

# End-to-end crash/recovery smoke: kill -9 the real daemon mid-burst
# with a journal dir and demand zero acknowledged work lost on restart;
# corrupt the checkpoint store and demand quarantine + recompute; crash
# via injected fault (IPCPD_CHAOS) at the queue handoff and recover.
chaos-smoke:
	$(GO) test ./cmd/ipcpd -run '^TestChaosSmoke$$' -count=1 -v

# End-to-end distributed smoke: boot a real coordinator and two real
# workers, submit one parameter grid via POST /v1/sweeps, kill -9 a
# worker mid-sweep, and demand every acknowledged point still reach a
# result — with the reassignment visible on the coordinator's metrics;
# then kill -9 a journaling coordinator mid-sweep instead, restart it
# on the same address, and demand the same sweep finish every point.
dist-smoke:
	$(GO) test ./cmd/ipcpd -run '^(TestDistSmoke|TestCoordinatorCrashSmoke)$$' -count=1 -v
