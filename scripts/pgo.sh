#!/usr/bin/env bash
# Refreshes the profile-guided optimisation profile of the three
# binaries.
#
# Runs scripts/profile.sh's command lines for single_stream and
# single_pointer (16 seeds each), mix8 (6 seeds) and paper_figs (6
# repetitions), merges every CPU profile they write with
# `go tool pprof -proto`, and writes the one merged profile to
# cmd/ipcpsim/default.pgo, cmd/experiments/default.pgo and
# cmd/ipcpd/default.pgo. `go build`'s default -pgo=auto compiles each
# main package with the default.pgo in its directory; keeping the three
# byte-identical lets the packages they share compile once, with one
# profile (cmd/ipcpsim's TestProfilesIdentical holds them to that).
#
# A profile only steers inlining and devirtualisation: a stale one costs
# speed, never correctness. Rerun this after a change that moves the
# profile's hot functions, and commit the result.
#
#   make pgo
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
prof="$root/.bench_build/profile"

bash "$root/scripts/profile.sh" single_stream 16 >/dev/null
bash "$root/scripts/profile.sh" single_pointer 16 >/dev/null
bash "$root/scripts/profile.sh" mix8 6 >/dev/null
bash "$root/scripts/profile.sh" paper_figs 6 >/dev/null

merged=$(mktemp)
trap 'rm -f "$merged"' EXIT
go tool pprof -proto "$prof"/{single_stream,single_pointer,mix8,paper_figs}/*.pprof >"$merged" 2>/dev/null
for cmd in ipcpsim experiments ipcpd; do
	cat "$merged" >"$root/cmd/$cmd/default.pgo"
done
echo "pgo.sh: wrote $(wc -c <"$merged") bytes to cmd/{ipcpsim,experiments,ipcpd}/default.pgo"
