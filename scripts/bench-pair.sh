#!/usr/bin/env bash
# Paired parent-versus-change benchmark runs, the way a change claims or
# disclaims a gain (bench/README.md, "Repeatability"; the metrics guide,
# "Measuring in a small sandbox"): N pairs of
#
#   bash bench/run.sh --workload W --seed S --seconds 20 --trace 0
#
# on the parent commit and on the work tree, alternating which side runs
# first, then per end-to-end metric of BENCHMARK.json both medians and
# quartiles, the pairs each side won, and a verdict:
#
#   gain        the change won at least nine tenths of the pairs (ties count
#               for neither) and the medians differ by more than the
#               distance between the parent's quartiles
#   REGRESSION  the change's median is worse than the parent's by more than
#               the metric's bound
#   unresolved  the parent's own runs spread (IQR / median) wider than the
#               bound, and not every change run beat every parent run
#   within      none of the above: no difference beyond the bound
#
# The parent is checked out into a temporary git worktree outside the tree
# and removed on exit; the change is the work tree as it stands, committed
# or not. Nothing under bench/ is edited: both sides build and run their own
# bench/ from source into their own bench/out/.
#
# usage: scripts/bench-pair.sh WORKLOAD [PARENT] [N] [SEED]
#        make bench-pair WORKLOAD=hepth-schemes PARENT=HEAD~1 N=10 SEED=42
set -euo pipefail

workload=${1:?usage: scripts/bench-pair.sh WORKLOAD [PARENT=HEAD] [N=10] [SEED=42]}
parent=${2:-HEAD}
pairs=${3:-10}
seed=${4:-42}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/parent" "$parent" >/dev/null
echo "parent $(git -C "$tmp/parent" rev-parse --short HEAD) vs work tree of $(git -C "$root" rev-parse --short HEAD), workload $workload, seed $seed, $pairs pairs" >&2

# metrics: "name better bound" per end-to-end metric, from the pretty-printed
# BENCHMARK.json the change is measured with.
metrics=$(awk '
	/"end_to_end"/ { on = 1; next }
	on && /\]/     { exit }
	on && /"name"/   { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
' "$root/BENCHMARK.json")
[ -n "$metrics" ] || { echo "no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }

# run SIDE DIR: one benchmark run in DIR; appends each metric's value to
# $tmp/SIDE.METRIC and fails when the run reports a failed operation.
run() {
	local side=$1 dir=$2 line
	line=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 2>/dev/null | tail -n 1)
	case $line in
	*'"failed":0,'*) ;;
	*) echo "$side run failed operations or printed no result: $line" >&2; exit 1 ;;
	esac
	while read -r name _; do
		printf '%s\n' "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p" >>"$tmp/$side.$name"
	done <<<"$metrics"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$tmp/parent"; run change "$root"
	else
		run change "$root"; run parent "$tmp/parent"
	fi
	echo "pair $i/$pairs: op_wall_s parent $(tail -n 1 "$tmp/parent.op_wall_s") change $(tail -n 1 "$tmp/change.op_wall_s")" >&2
done

printf '%-10s %-7s %12s %25s %12s %25s %7s %9s  %s\n' metric better 'parent med' '[q1, q3]' 'change med' '[q1, q3]' change parent verdict
while read -r name better bound; do
	paste "$tmp/parent.$name" "$tmp/change.$name" | awk -v name="$name" -v better="$better" -v bound="$bound" '
		# quartile q of the sorted v[1..n], exclusive method (statistics.quantiles(n=4)).
		function quant(v, n, q,    pos, lo, frac) {
			pos = (n + 1) * q; lo = int(pos); frac = pos - lo
			if (lo < 1) return v[1]
			if (lo >= n) return v[n]
			return v[lo] + frac * (v[lo + 1] - v[lo])
		}
		function sorted(src, dst, n,    i, j, t) {
			for (i = 1; i <= n; i++) dst[i] = src[i]
			for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
		}
		{ n++; p[n] = $1; c[n] = $2 }
		END {
			sign = (better == "lower") ? 1 : -1   # sign * (parent - change) > 0: the change is better
			for (i = 1; i <= n; i++) { d = sign * (p[i] - c[i]); if (d > 0) cw++; else if (d < 0) pw++ }
			sorted(p, ps, n); sorted(c, cs, n)
			pm = quant(ps, n, 0.5); cm = quant(cs, n, 0.5)
			p1 = quant(ps, n, 0.25); p3 = quant(ps, n, 0.75)
			c1 = quant(cs, n, 0.25); c3 = quant(cs, n, 0.75)
			gainBy = sign * (pm - cm)
			# every change run better than every parent run
			clean = (sign > 0) ? (cs[n] < ps[1]) : (cs[1] > ps[n])
			verdict = "within"
			if (pm != 0 && -gainBy / pm > bound) verdict = "REGRESSION"
			else if (cw >= 0.9 * n && gainBy > p3 - p1) verdict = "gain"
			else if (pm != 0 && (p3 - p1) / pm > bound && !clean) verdict = "unresolved"
			printf "%-10s %-7s %12.6g %25s %12.6g %25s %4d/%-2d %6d/%-2d  %s (%+.1f%%)\n", name, better, pm,
				sprintf("[%.6g, %.6g]", p1, p3), cm, sprintf("[%.6g, %.6g]", c1, c3), cw, n, pw, n, verdict,
				(pm != 0) ? 100 * (cm - pm) / pm : 0
		}'
done <<<"$metrics"
