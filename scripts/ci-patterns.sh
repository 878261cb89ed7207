#!/usr/bin/env bash
# ci-patterns fails when a `go test -run` pattern names no test. go test
# passes silently when -run matches nothing, so a test that is renamed or
# deleted drops out of the CI job that names it without a sound.
#
# Every `go test … -run` pattern in the given files (default: the CI
# workflows and the Makefile) is split into its top-level alternatives,
# and each one must match at least one test, benchmark, fuzz target or
# example that `go test -list` reports for the packages named after it on
# the same line (./... when none is named). Only an alternative's first
# level is matched: `TestConformance/.*/mem` must find TestConformance.
# Names are matched with grep -E, which reads the RE2 syntax these
# patterns use (groups, classes, anchors, .*) as go test does. The
# pattern `^$`, which runs nothing on purpose, and patterns built from
# variables are skipped.
# Run from the repository root:
#
#	bash scripts/ci-patterns.sh [file ...]
set -euo pipefail

if [ $# -eq 0 ]; then
	set -- .github/workflows/*.yml Makefile
fi

# alternatives prints the top-level alternatives of a Go regexp, one a
# line, each cut at its first top-level '/' (go test -run's subtest
# separator).
alternatives() {
	local re=$1 depth=0 cur="" cut=0 c i
	for ((i = 0; i < ${#re}; i++)); do
		c=${re:i:1}
		case $c in
		'\')
			((cut)) || cur+=$c${re:i+1:1}
			i=$((i + 1))
			continue
			;;
		'(' | '[') depth=$((depth + 1)) ;;
		')' | ']') depth=$((depth - 1)) ;;
		'|')
			if ((depth == 0)); then
				printf '%s\n' "$cur"
				cur="" cut=0
				continue
			fi
			;;
		'/') ((depth == 0)) && cut=1 ;;
		esac
		((cut)) || cur+=$c
	done
	printf '%s\n' "$cur"
}

# list fills listed[package set] with the set's test names, once.
declare -A listed
list() {
	local key="$*"
	[ -n "${listed[$key]+set}" ] && return
	listed[$key]=$(go test -list . "$@" | grep -E '^(Test|Benchmark|Fuzz|Example)') || {
		echo "FAIL  go test -list . $*"
		exit 1
	}
}

run_re="[[:space:]]test[[:space:]](.*[[:space:]])?-run[[:space:]]+('([^']*)'|\"([^\"]*)\"|([^[:space:]]+))(.*)"
failed=0 checked=0
for file in "$@"; do
	while IFS= read -r line; do
		[[ $line =~ $run_re ]] || continue
		pattern=${BASH_REMATCH[3]}${BASH_REMATCH[4]}${BASH_REMATCH[5]}
		rest=${BASH_REMATCH[6]}
		if [ "$file" = Makefile ] || [[ $file == */Makefile ]]; then
			pattern=${pattern//\$\$/\$}
		fi
		if [[ $pattern == *'${'* || $pattern == *'$('* ]]; then
			echo "skip  $file: -run $pattern (built from variables)"
			continue
		fi
		pkgs=()
		for tok in $rest; do
			[[ $tok == .* ]] && pkgs+=("$tok")
		done
		((${#pkgs[@]})) || pkgs=(./...)
		while IFS= read -r alt; do
			[ "$alt" = '^$' ] && continue
			list "${pkgs[@]}"
			checked=$((checked + 1))
			if ! grep -qE -- "$alt" <<<"${listed[${pkgs[*]}]}"; then
				echo "FAIL  $file: -run alternative '$alt' names no test in ${pkgs[*]}"
				failed=1
			fi
		done < <(alternatives "$pattern")
	done <"$file"
done
if ((failed)); then
	exit 1
fi
echo "ci-patterns: all $checked -run alternatives name a test"
