#!/usr/bin/env bash
# Alternating-pair procedure behind every speed claim (ROADMAP ground
# rules, benchmark/README.md): N pairs of `benchmark/run.sh --workload W`
# on the committed files of BASE and on this checkout, same host, same
# seed within a pair, alternating which side runs first; prints each
# pair's values, who won, and both sides' medians and quartiles.
#
#   make pairs W=serve_cold BASE=HEAD~1 N=10 S=15
#   scripts/pairs.sh serve_cold HEAD~1 10 15 [metric]   # default sim_instr_per_s
#
# BASE is exported with `git archive` into .bench_build/pairs/<sha> (a
# plain directory: nothing to unregister, reused by the next call) and
# runs its *own* benchmark/; the change side is the working tree as it
# stands, uncommitted edits included. Seeds are 101..100+N, away from
# the 1..20 the recorded baselines use. The verdict line applies the
# claim rule: >= 9/10 of the pairs won and the medians further apart
# than the base's own interquartile range.
set -euo pipefail

w=${1:?usage: pairs.sh WORKLOAD BASE [N] [SECONDS] [METRIC]}
base=${2:?usage: pairs.sh WORKLOAD BASE [N] [SECONDS] [METRIC]}
n=${3:-10}
secs=${4:-15}
metric=${5:-sim_instr_per_s}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify "$base^{commit}")
basedir="$root/.bench_build/pairs/$sha"
if [ ! -d "$basedir" ]; then
	mkdir -p "$basedir.tmp"
	git -C "$root" archive "$sha" | tar -x -C "$basedir.tmp"
	mv "$basedir.tmp" "$basedir"
fi

# lower-is-better metrics win by being smaller
case $metric in
*_per_s) better=higher ;;
*) better=lower ;;
esac

# one benchmark run; prints the metric's value
run() { # dir seed
	bash "$1/benchmark/run.sh" --workload "$w" --seed "$2" --seconds "$secs" --trace 0 |
		tail -n 1 | sed -n 's/.*"'"$metric"'":{"value":\([-+0-9.eE]*\).*/\1/p'
}

echo "# $w $metric ($better is better): base ${sha:0:7} vs working tree, $n pairs x ${secs}s"
pairs=()
for i in $(seq 1 "$n"); do
	seed=$((100 + i))
	if [ $((i % 2)) -eq 1 ]; then
		first=base
		b=$(run "$basedir" "$seed")
		c=$(run "$root" "$seed")
	else
		first=change
		c=$(run "$root" "$seed")
		b=$(run "$basedir" "$seed")
	fi
	if [ -z "$b" ] || [ -z "$c" ]; then
		echo "pair $i: a run printed no $metric (failed run?)" >&2
		exit 1
	fi
	echo "pair $i seed $seed first $first base $b change $c"
	pairs+=("$b $c")
done

# Wins, then each side's quartiles by linear interpolation (the
# harness's and Python's rule), then the claim rule.
printf '%s\n' "${pairs[@]}" | awk -v better="$better" '
function sorted(src, dst, n,   i, j, v) {
	for (i = 1; i <= n; i++) {
		v = src[i]
		for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
		dst[j + 1] = v
	}
}
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
	b[NR] = $1; c[NR] = $2
	if ($2 == $1) ties++
	else if ((better == "higher") ? ($2 > $1) : ($2 < $1)) wins++
}
END {
	n = NR
	sorted(b, sb, n); sorted(c, sc, n)
	bm = q(sb, n, .5); cm = q(sc, n, .5); iqr = q(sb, n, .75) - q(sb, n, .25)
	printf "base    q1 %.6g  median %.6g  q3 %.6g\n", q(sb, n, .25), bm, q(sb, n, .75)
	printf "change  q1 %.6g  median %.6g  q3 %.6g\n", q(sc, n, .25), cm, q(sc, n, .75)
	printf "median ratio %.3f (change / base); base interquartile range %.6g\n", cm / bm, iqr
	apart = (better == "higher") ? cm - bm : bm - cm
	met = (wins * 10 >= n * 9) && (apart > iqr)
	printf "change won %d of %d pairs (%d ties): claim rule %s\n", wins, n, ties, met ? "MET" : "NOT met"
}'
