#!/usr/bin/env bash
# Where one of the benchmark's workloads spends its time.
#
# ipcpsim workloads (mix8, single_stream, single_pointer): builds ipcpsim
# into .bench_build/, runs the benchmark's exact command line for the
# workload over SEEDS seeds — seed*100003 + n, n = 1..SEEDS, as the
# harness derives them — each under -cpuprofile, then prints the merged
# `go tool pprof -top` and the first seed's engine: table. One process
# is ~0.4 s, 40 samples; thirty make a profile worth reading.
#
# paper_figs: builds the experiments CLI, runs the benchmark's command
# line (seven tables, 260 simulations at -scale quick -warmup 5000
# -measure 10000; ~0.5 s) SEEDS times — the CLI has no seed, so these
# are plain repetitions — each under -cpuprofile, then prints the merged
# top and the last repetition's simulation count.
#
# ipcpd workloads (serve_repeat, serve_cold): builds ipcpd, boots it with
# the benchmark's daemon flags (benchmark/daemons.go: two workers, a
# cache dir, a journal, 2,000 + 8,000 instructions per run) plus a
# -debug-addr pprof listener, and drives the harness's closed loop with
# curl — POST /v1/runs, then GET the job until it is terminal, every run
# a new seed (serve_cold) or one of 64 specs computed first
# (serve_repeat) — while /debug/pprof/profile samples the daemon for
# SECONDS. The client is curl, not the harness's Go client, so runs/s is
# lower than the benchmark's; the daemon's split is what to read.
#
# sweep_grid: builds ipcpd, boots a coordinator and two -workers 1
# workers with the benchmark's flags (150,000 + 30,000 instructions per
# point, a cache dir each) plus -debug-addr, and POSTs the benchmark's
# 48-point /v1/sweeps grid back to back — a fresh seed each time, so no
# sweep finds another's checkpoints — following each to its end, while
# all three daemons' /debug/pprof/profile sample for SECONDS. It prints
# the two workers' profiles merged, then the coordinator's.
#
#   make profile W=mix8 [SEEDS=30] [SEED=1]
#   make profile W=paper_figs [SEEDS=30]
#   make profile W=serve_repeat [S=15]
#   make profile W=sweep_grid [S=15]
#   scripts/profile.sh mix8 30 1 [pprof flags, default -top -nodecount=45]
#   scripts/profile.sh serve_cold 15 1 [pprof flags]
#
# The profiles stay in .bench_build/profile/<workload>/ for
# `go tool pprof -list` and the like (.bench_build/bin/ holds the
# binaries); scripts/pgo.sh merges them into the build's PGO profile.
set -euo pipefail

w=${1:?usage: profile.sh mix8|single_stream|single_pointer|paper_figs|serve_repeat|serve_cold|sweep_grid [SEEDS|SECONDS] [SEED] [pprof flags]}
n=${2:-}
seed=${3:-1}
shift $(($# < 3 ? $# : 3))
if [ $# -eq 0 ]; then set -- -top -nodecount=45; fi

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/profile/$w"

# The command lines of benchmark/workloads.go (newWorkload, runOne).
case $w in
single_stream) args=(-workload lbm-94 -warmup 100000 -measure 600000) ;;
single_pointer) args=(-workload mcf-994 -warmup 20000 -measure 100000) ;;
mix8) args=(-mix lbm-94,mcf-1536,bwaves-2931,exchange2-387,roms-1070,omnetpp-17,gcc-2226,xalancbmk-165 -warmup 2000 -measure 6000) ;;
paper_figs) args=(-run fig7,fig8,fig10,fig12,fig13a,fig13b,tab1 -scale quick -warmup 5000 -measure 10000) ;;
serve_repeat | serve_cold | sweep_grid) ;;
*)
	echo "profile.sh: unknown workload $w (mix8, single_stream, single_pointer, paper_figs, serve_repeat, serve_cold, sweep_grid)" >&2
	exit 2
	;;
esac
mkdir -p "$out"
rm -f "$out"/*.pprof

if [ "$w" = paper_figs ]; then
	bin="$root/.bench_build/bin/experiments"
	(cd "$root" && go build -o "$bin" ./cmd/experiments)
	for i in $(seq 1 "${n:-30}"); do
		"$bin" "${args[@]}" -cpuprofile "$out/rep$i.pprof" >/dev/null 2>"$out/stderr"
	done
	go tool pprof "$@" "$bin" "$out"/*.pprof
	echo
	tail -n 1 "$out/stderr"
	exit 0
fi

if [ "$w" = sweep_grid ]; then
	secs=${n:-15}
	bin="$root/.bench_build/bin/ipcpd"
	(cd "$root" && go build -o "$bin" ./cmd/ipcpd)
	tmp=$(mktemp -d)
	pids=()
	trap 'for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; wait "$p" 2>/dev/null || true; done; rm -rf "$tmp"' EXIT
	# up NAME PATTERN: wait for daemon NAME to print its URL (stdout line
	# PATTERN) and its pprof URL (stderr), leaving them in base / dbg.
	up() {
		base= dbg=
		for _ in $(seq 100); do
			base=$(sed -n "s/^$2 //p" "$tmp/$1.out")
			dbg=$(grep -o 'http://[0-9.:]*/debug/pprof/' "$tmp/$1.err" | head -n 1 || true)
			if [ -n "$base" ] && [ -n "$dbg" ]; then return; fi
			sleep 0.1
		done
		echo "profile.sh: $1 did not come up" >&2
		cat "$tmp/$1.err" >&2
		exit 1
	}
	"$bin" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -coordinator -data-dir "$tmp/coord" \
		>"$tmp/coord.out" 2>"$tmp/coord.err" &
	pids+=($!)
	up coord 'ipcpd coordinator listening on'
	coord=$base
	dbgs=("$dbg")
	for i in 1 2; do
		"$bin" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -worker "$coord" -workers 1 \
			-warmup 150000 -measure 30000 -cache-dir "$tmp/cache$i" >"$tmp/w$i.out" 2>"$tmp/w$i.err" &
		pids+=($!)
		up "w$i" 'ipcpd listening on'
		dbgs+=("$dbg")
	done
	for _ in $(seq 100); do
		[ "$(curl -sf "$coord/v1/workers" | grep -c '"lost": false')" -ge 2 ] && break
		sleep 0.1
	done

	sweep() {
		local body id report
		body=$(printf '{"workloads":["mcf-994","lbm-94","gcc-2226","bwaves-2931"],"l1d":["","nl","ipstride","ipcp","spp","bop"],"l2":["","ipcp"],"seed":%d}' \
			$((seed * 1000000 + $1 + 1)))
		id=$(curl -sf -X POST "$coord/v1/sweeps" -d "$body" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1)
		curl -sfN "$coord/v1/sweeps/$id/events" >/dev/null
		report=$(curl -sf "$coord/v1/sweeps/$id")
		case $report in
		*'"failed": 0,'*) ;;
		*)
			echo "profile.sh: sweep $id had failed points" >&2
			exit 1
			;;
		esac
	}
	cpids=()
	for i in 0 1 2; do
		curl -sf -o "$out/daemon$i.pprof" "${dbgs[$i]}profile?seconds=$secs" &
		cpids+=($!)
	done
	sweeps=0
	while kill -0 "${cpids[0]}" 2>/dev/null; do
		sweep "$sweeps"
		sweeps=$((sweeps + 1))
	done
	wait "${cpids[@]}"
	echo "== workers (two profiles merged)"
	go tool pprof "$@" "$bin" "$out/daemon1.pprof" "$out/daemon2.pprof"
	echo
	echo "== coordinator"
	go tool pprof "$@" "$bin" "$out/daemon0.pprof"
	echo
	echo "$sweeps sweeps of 48 points in ${secs}s"
	exit 0
fi

if [[ $w == serve_* ]]; then
	secs=${n:-15}
	bin="$root/.bench_build/bin/ipcpd"
	(cd "$root" && go build -o "$bin" ./cmd/ipcpd)
	tmp=$(mktemp -d)
	pid=
	trap 'if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; wait "$pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT
	"$bin" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -workers 2 -warmup 2000 -measure 8000 \
		-cache-dir "$tmp/cache" -journal-dir "$tmp/journal" >"$tmp/stdout" 2>"$tmp/stderr" &
	pid=$!
	base= dbg=
	for _ in $(seq 100); do
		base=$(sed -n 's/^ipcpd listening on //p' "$tmp/stdout")
		dbg=$(grep -o 'http://[0-9.:]*/debug/pprof/' "$tmp/stderr" | head -n 1 || true)
		if [ -n "$base" ] && [ -n "$dbg" ]; then break; fi
		sleep 0.1
	done
	if [ -z "$base" ] || [ -z "$dbg" ]; then
		echo "profile.sh: ipcpd did not come up" >&2
		cat "$tmp/stderr" >&2
		exit 1
	fi

	# One run as the harness's client makes it: POST, then GET the job
	# until it is terminal.
	run() {
		local body id job
		body=$(printf '{"workloads":["lbm-94"],"l1d":"ipcp","l2":"ipcp","seed":%d}' $((seed * 1000000 + $1 + 1)))
		id=$(curl -sf -X POST "$base/v1/runs" -d "$body" | sed -n 's/^ "id": "\([^"]*\)".*/\1/p')
		while :; do
			job=$(curl -sf "$base/v1/runs/$id")
			case $job in
			*'"status": "done"'*) return ;;
			*'"status": "failed"'* | *'"status": "stalled"'*)
				echo "profile.sh: job $id: $job" >&2
				exit 1
				;;
			esac
			sleep 0.001
		done
	}
	specs=64
	if [ "$w" = serve_repeat ]; then
		for i in $(seq 0 $((specs - 1))); do run "$i"; done
	fi

	curl -sf -o "$out/daemon.pprof" "${dbg}profile?seconds=$secs" &
	cpid=$!
	runs=0
	while kill -0 "$cpid" 2>/dev/null; do
		if [ "$w" = serve_repeat ]; then run $((runs % specs)); else run "$runs"; fi
		runs=$((runs + 1))
	done
	wait "$cpid"
	go tool pprof "$@" "$bin" "$out/daemon.pprof"
	echo
	echo "$runs runs by one curl client in ${secs}s"
	exit 0
fi

bin="$root/.bench_build/bin/ipcpsim"
(cd "$root" && go build -o "$bin" ./cmd/ipcpsim)
for i in $(seq 1 "${n:-30}"); do
	s=$((seed * 100003 + i))
	"$bin" "${args[@]}" -l1 ipcp -l2 ipcp -seed "$s" -json -cpuprofile "$out/$s.pprof" >/dev/null
done
go tool pprof "$@" "$bin" "$out"/*.pprof
echo
"$bin" "${args[@]}" -l1 ipcp -l2 ipcp -seed $((seed * 100003 + 1)) | sed -n '/^engine:/,$p'
