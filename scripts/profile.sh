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
#   make profile W=mix8 [SEEDS=30] [SEED=1]
#   make profile W=serve_repeat [S=15]
#   scripts/profile.sh mix8 30 1 [pprof flags, default -top -nodecount=45]
#   scripts/profile.sh serve_cold 15 1 [pprof flags]
#
# The profiles stay in .bench_build/profile/<workload>/ for
# `go tool pprof -list` and the like (.bench_build/bin/ holds the
# binaries).
set -euo pipefail

w=${1:?usage: profile.sh mix8|single_stream|single_pointer|serve_repeat|serve_cold [SEEDS|SECONDS] [SEED] [pprof flags]}
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
serve_repeat | serve_cold) ;;
*)
	echo "profile.sh: unknown workload $w (mix8, single_stream, single_pointer, serve_repeat, serve_cold)" >&2
	exit 2
	;;
esac
mkdir -p "$out"
rm -f "$out"/*.pprof

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
