GO ?= go

.PHONY: check build fmt vet test benchmark-test lines pairs profile pgo determinism audit fuzz serve-smoke obs-smoke chaos-smoke dist-smoke

# Tier-1 gate: everything must pass before a change lands, and every
# test runs once. `test` runs -race over every package — including the
# determinism goldens, the gated-twin differentials and the five
# real-binary ipcpd smokes in cmd/ipcpd, so the standalone determinism /
# *-smoke targets below are for running one gate alone and are not
# prerequisites here. benchmark-test runs the benchmark module's own
# tests, which `test` does not reach; audit runs the full differential
# suite (AUDIT_FULL=1), which `test` runs only a subset of.
check: build fmt vet test benchmark-test audit fuzz

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
# contract cycle by cycle. Already part of `test`; kept as its own
# target so a perf change can run just this, fast.
determinism:
	$(GO) test ./internal/sim -run 'Determinism|FastForward|ForkGated|EveryStatsReaderSettles|ResultDigests' -count=1
	$(GO) test ./internal/dram ./internal/cache ./internal/cpu -run 'GatedTwin' -count=1

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
