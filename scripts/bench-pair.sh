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
# With BENCH=Name set, a pair is instead one run on each side of the Go
# benchmark BenchmarkName of package PKG (default: the module root),
#
#   go test -run '^$' -bench '^BenchmarkName$' -benchmem -benchtime BENCHTIME
#
# (BENCHTIME default 5x), and the verdict is given for every metric the
# benchmark reports (ns/op, B/op, allocs/op and its own b.ReportMetric
# units, per sub-benchmark) with bound 0.1, BENCHMARK.json's default. A rate
# (a unit ending in /s, as b.SetBytes's MB/s) is higher-is-better, every
# other unit lower-is-better. A counter that should not move reads "within"
# when it did not. WORKLOAD and SEED are then unused.
#
# The parent is checked out into a temporary git worktree outside the tree
# and removed on exit; the change is the work tree as it stands, committed
# or not. Nothing under bench/ is edited: both sides build and run their own
# bench/ from source into their own bench/out/.
#
# usage: scripts/bench-pair.sh WORKLOAD [PARENT] [N] [SEED]
#        BENCH=Name [PKG=./dir] scripts/bench-pair.sh - [PARENT] [N]
#        make bench-pair WORKLOAD=hepth-schemes PARENT=HEAD~1 N=10 SEED=42
#        make bench-pair BENCH=Ingest PKG=./internal/serve/ PARENT=HEAD~1 N=10
set -euo pipefail

workload=${1:-}
[ -n "$workload" ] || [ -n "${BENCH:-}" ] || { echo "usage: scripts/bench-pair.sh WORKLOAD [PARENT=HEAD] [N=10] [SEED=42]" >&2; exit 2; }
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

# run SIDE DIR: one run in DIR; appends "metric value" lines to $tmp/SIDE.tsv
# and fails when the run reports a failed operation.
if [ -n "${BENCH:-}" ]; then
	label="BENCH=$BENCH PKG=${PKG:-.}"
	first=""
	run() {
		local side=$1 dir=$2 out got
		out=$(cd "$dir" && go test -run '^$' -bench "^Benchmark${BENCH}\$" -benchmem -benchtime "${BENCHTIME:-5x}" "${PKG:-.}" 2>&1) ||
			{ echo "$side benchmark failed:" >&2; printf '%s\n' "$out" >&2; exit 1; }
		# Benchmark<Name>[/sub]-<procs> <iterations> (<value> <unit>)...
		got=$(printf '%s\n' "$out" | awk '
			$1 ~ /^Benchmark/ && $2 ~ /^[0-9]+$/ {
				name = $1; sub(/^Benchmark/, "", name); sub(/-[0-9]+$/, "", name)
				for (i = 3; i < NF; i += 2) print name ":" $(i + 1), $i
			}')
		[ -n "$got" ] || { echo "$side run reported no benchmark: $out" >&2; exit 1; }
		printf '%s\n' "$got" >>"$tmp/$side.tsv"
	}
else
	label="workload $workload, seed $seed"
	first=op_wall_s
	# "name better bound" per end-to-end metric, from the pretty-printed
	# BENCHMARK.json the change is measured with.
	ends=$(awk '
		/"end_to_end"/ { on = 1; next }
		on && /\]/     { exit }
		on && /"name"/   { gsub(/[",]/, ""); name = $2 }
		on && /"better"/ { gsub(/[",]/, ""); better = $2 }
		on && /"bound"/  { gsub(/[",]/, ""); print name, better, $2 }
	' "$root/BENCHMARK.json")
	[ -n "$ends" ] || { echo "no end_to_end metrics in BENCHMARK.json" >&2; exit 1; }
	run() {
		local side=$1 dir=$2 line
		line=$(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 2>/dev/null | tail -n 1)
		case $line in
		*'"failed":0,'*) ;;
		*) echo "$side run failed operations or printed no result: $line" >&2; exit 1 ;;
		esac
		while read -r name _; do
			printf '%s %s\n' "$name" "$(printf '%s\n' "$line" | sed -n "s/.*\"$name\":{\"value\":\([^,}]*\).*/\1/p")" >>"$tmp/$side.tsv"
		done <<<"$ends"
	}
fi
echo "parent $(git -C "$tmp/parent" rev-parse --short HEAD) vs work tree of $(git -C "$root" rev-parse --short HEAD), $label, $pairs pairs" >&2

# values SIDE METRIC: the metric's values of SIDE's runs, one a line.
values() { awk -v m="$2" '$1 == m { print $2 }' "$tmp/$1.tsv"; }

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$tmp/parent"; run change "$root"
	else
		run change "$root"; run parent "$tmp/parent"
	fi
	m=${first:-$(awk 'NR == 1 { print $1 }' "$tmp/change.tsv")}
	echo "pair $i/$pairs: $m parent $(values parent "$m" | tail -n 1) change $(values change "$m" | tail -n 1)" >&2
done

# metrics: "name better bound" per metric judged.
if [ -n "${BENCH:-}" ]; then
	metrics=$(awk '!seen[$1]++ { print $1, ($1 ~ /\/s$/ ? "higher" : "lower"), 0.1 }' "$tmp/change.tsv")
else
	metrics=$ends
fi

w=$(awk '{ w = length($1) > w ? length($1) : w } END { print (w > 10 ? w : 10) }' <<<"$metrics")
printf "%-${w}s %-7s %12s %25s %12s %25s %7s %9s  %s\n" metric better 'parent med' '[q1, q3]' 'change med' '[q1, q3]' change parent verdict
while read -r name better bound; do
	paste <(values parent "$name") <(values change "$name") | awk -v name="$name" -v better="$better" -v bound="$bound" -v w="$w" '
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
			printf "%-" w "s %-7s %12.6g %25s %12.6g %25s %4d/%-2d %6d/%-2d  %s (%+.1f%%)\n", name, better, pm,
				sprintf("[%.6g, %.6g]", p1, p3), cm, sprintf("[%.6g, %.6g]", c1, c3), cw, n, pw, n, verdict,
				(pm != 0) ? 100 * (cm - pm) / pm : 0
		}'
done <<<"$metrics"
