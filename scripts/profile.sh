#!/usr/bin/env bash
# Where one of the benchmark's ipcpsim workloads spends its time: builds
# ipcpsim into .bench_build/, runs the benchmark's exact command line for
# the workload over SEEDS seeds — seed*100003 + n, n = 1..SEEDS, as the
# harness derives them — each under -cpuprofile, then prints the merged
# `go tool pprof -top` and the first seed's engine: table. One process
# is ~0.4 s, 40 samples; thirty make a profile worth reading.
#
#   make profile W=mix8 [SEEDS=30] [SEED=1]
#   scripts/profile.sh mix8 30 1 [pprof flags, default -top -nodecount=45]
#
# The profiles stay in .bench_build/profile/<workload>/ for
# `go tool pprof -list` and the like (.bench_build/bin/ipcpsim is the
# binary).
set -euo pipefail

w=${1:?usage: profile.sh mix8|single_stream|single_pointer [SEEDS] [SEED] [pprof flags]}
seeds=${2:-30}
seed=${3:-1}
shift $(($# < 3 ? $# : 3))
if [ $# -eq 0 ]; then set -- -top -nodecount=45; fi

# The command lines of benchmark/workloads.go (newWorkload, runOne).
case $w in
single_stream) args=(-workload lbm-94 -warmup 100000 -measure 600000) ;;
single_pointer) args=(-workload mcf-994 -warmup 20000 -measure 100000) ;;
mix8) args=(-mix lbm-94,mcf-1536,bwaves-2931,exchange2-387,roms-1070,omnetpp-17,gcc-2226,xalancbmk-165 -warmup 2000 -measure 6000) ;;
*)
	echo "profile.sh: unknown workload $w (mix8, single_stream, single_pointer)" >&2
	exit 2
	;;
esac

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
bin="$root/.bench_build/bin/ipcpsim"
out="$root/.bench_build/profile/$w"
mkdir -p "$out"
rm -f "$out"/*.pprof
(cd "$root" && go build -o "$bin" ./cmd/ipcpsim)

for n in $(seq 1 "$seeds"); do
	s=$((seed * 100003 + n))
	"$bin" "${args[@]}" -l1 ipcp -l2 ipcp -seed "$s" -json -cpuprofile "$out/$s.pprof" >/dev/null
done
go tool pprof "$@" "$bin" "$out"/*.pprof
echo
"$bin" "${args[@]}" -l1 ipcp -l2 ipcp -seed $((seed * 100003 + 1)) | sed -n '/^engine:/,$p'
