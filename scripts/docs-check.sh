#!/usr/bin/env bash
# docs-check fails when a document names a path that does not exist: the
# package of a `go run ./…` command, or a path in one of the cmd,
# internal, scripts, testdata, match or examples trees written in an
# inline code span.
# A glob must match at least one file.
#
# It also fails when a `go run ./cmd/X …` command passes a flag that X
# does not define. Each such X is built once into a temporary directory
# and its flags are read from `X -h`. A command is taken from a fenced
# block (where it continues over lines that end in a backslash) or from
# an inline code span, and ends at a `#` comment, the next `go run`, the
# end of its line or span, or the end of its block.
#
# It holds README.md to the public surface in testdata/api.txt, in both
# directions: every `cem.X` the README names, and every `WithX(` option it
# names bare or as `cem.WithX(`, must be in the surface, and every `With…`
# function of package repro must be named in the README.
# Every ```go block of README.md quotes example_test.go: the paragraph
# before the block names an Example function in a code span, and each
# part of the block between `// ...` lines is consecutive lines of that
# file (leading whitespace aside), one part inside the named function —
# so the tier-1 test run compiles and runs what the README shows.
# And README.md may be no larger, in bytes, than the committed ceiling in
# readme_ceiling.txt, which only ever moves down: lower it when the README
# shrinks, never raise it to let a README grow.
# Run from the repository root:
#
#	bash scripts/docs-check.sh [doc ...]   (default README.md; make docs-check)
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

missing=0
check() { # $1: the path as the document writes it
	local p=${1#./}
	p=${p%/...}
	p=${p%/}
	if ! compgen -G "$p" >/dev/null; then
		echo "$doc: \`$1\` does not exist"
		missing=1
	fi
}

# commands prints each `go run ./cmd/X …` command of document $1 as one
# line, "X arg…".
commands() {
	awk '
	function emit(s,   n, part, i) {
		n = split(s, part, /go run \.\/cmd\//)
		for (i = 2; i <= n; i++) {
			sub(/(^|[[:space:]])#.*/, "", part[i])
			print part[i]
		}
	}
	/^[[:space:]]*```/ {
		if (cmd != "") emit(cmd)
		cmd = ""
		fenced = !fenced
		next
	}
	fenced {
		line = $0
		if (cmd == "" && index(line, "go run ./cmd/") == 0) next
		ended = sub(/(^|[[:space:]])#.*/, "", line)
		more = !ended && sub(/\\[[:space:]]*$/, "", line)
		cmd = cmd " " line
		if (!more) {
			emit(cmd)
			cmd = ""
		}
		next
	}
	{ prose = prose " " $0 }
	END {
		while (match(prose, /`[^`]*`/)) {
			emit(substr(prose, RSTART + 1, RLENGTH - 2))
			prose = substr(prose, RSTART + RLENGTH)
		}
	}' "$1"
}

for doc in "${@:-README.md}"; do
	# Lines are joined first: a code span may wrap.
	text=$(tr '\n' ' ' <"$doc")
	while read -r path; do
		check "$path"
	done < <(
		{
			grep -o 'go run \./[^[:space:]`]*' <<<"$text" | sed 's/^go run //'
			grep -o '`[^`]*`' <<<"$text" | tr -d '`' | tr ' ' '\n' |
				grep -E '^(\./)?(cmd|internal|scripts|testdata|match|examples)/' |
				sed -E "s/[,;:.)']+\$//"
		} | sort -u
	)
	while read -r cmd args; do
		[[ -d cmd/$cmd ]] || continue # reported above
		if [[ ! -e $tmp/$cmd.flags ]]; then
			if ! go build -o "$tmp/$cmd" "./cmd/$cmd"; then
				echo "$doc: ./cmd/$cmd does not build"
				missing=1
				: >"$tmp/$cmd.flags"
				continue
			fi
			{ "$tmp/$cmd" -h 2>&1 || true; } | sed -nE 's/^  -([^[:space:]]+).*/\1/p' >"$tmp/$cmd.flags"
		fi
		while read -r flag; do
			if ! grep -qxF -- "$flag" "$tmp/$cmd.flags"; then
				echo "$doc: \`go run ./cmd/$cmd … -$flag\`: $cmd has no flag -$flag"
				missing=1
			fi
		done < <(grep -oE '(^|[[:space:][(|])--?[A-Za-z][A-Za-z0-9_.-]*' <<<"$args" | sed -E 's/^[^-]*-+//')
	done < <(commands "$doc")
done
readme=README.md api=testdata/api.txt
text=$(tr '\n' ' ' <"$readme")
while read -r name; do
	if ! grep -qE "^repro (const|var|func|type) $name( |\(|\$)" "$api"; then
		echo "$readme: \`cem.$name\` is not in $api"
		missing=1
	fi
done < <(grep -oE 'cem\.[A-Z][A-Za-z0-9_]*' <<<"$text" | sed 's/^cem\.//' | sort -u)
while read -r opt; do
	if ! grep -q "^repro func $opt(" "$api"; then
		echo "$readme: option \`$opt(\` is not in $api"
		missing=1
	fi
done < <(grep -oE '([A-Za-z_][A-Za-z0-9_]*\.)?With[A-Z][A-Za-z0-9]*\(' <<<"$text" |
	grep -E '^(cem\.)?With' | sed -E 's/^cem\.//; s/\($//' | sort -u)
while read -r opt; do
	if ! grep -qw "$opt" "$readme"; then
		echo "$readme: \`$opt\` (in $api) is named nowhere"
		missing=1
	fi
done < <(grep -oE '^repro func With[A-Za-z0-9]*' "$api" | sed 's/^repro func //')
awk -v readme="$readme" '
FNR == NR { # example_test.go
	line = $0
	sub(/^[[:space:]]+/, "", line)
	file[++n] = line
	if (match($0, /^func Example[A-Za-z0-9_]*\(/)) {
		fn = substr($0, 6, RLENGTH - 6)
		first[fn] = n
	} else if ($0 == "}" && fn != "") {
		last[fn] = n
		fn = ""
	}
	next
}
function check(   i, j, k, r, found, inside) {
	if (!(named in first)) {
		printf "%s:%d: the paragraph before this go block names no Example of example_test.go\n", readme, at
		bad = 1
		return
	}
	for (i = 1; i <= m; i = j + 1) {
		for (j = i; j <= m && block[j] != "// ..."; j++)
			;
		found = 0
		for (k = 1; k + (j - i) - 1 <= n; k++) {
			for (r = 0; r < j - i && file[k + r] == block[i + r]; r++)
				;
			if (r == j - i) {
				found = 1
				if (k >= first[named] && k + r - 1 <= last[named])
					inside = 1
			}
		}
		if (!found) {
			printf "%s:%d: lines %d-%d of this go block are not consecutive lines of example_test.go\n", readme, at, i, j - 1
			bad = 1
		}
	}
	if (!inside) {
		printf "%s:%d: no part of this go block is in %s\n", readme, at, named
		bad = 1
	}
}
/^```go[[:space:]]*$/ { ingo = 1; m = 0; at = FNR; next }
ingo && /^```/ { check(); ingo = 0; named = ""; next }
ingo {
	line = $0
	sub(/^[[:space:]]+/, "", line)
	block[++m] = line
	next
}
/^[[:space:]]*```/ { fenced = !fenced; named = ""; next }
!fenced && /^[[:space:]]*$/ { para = ""; next }
!fenced {
	para = para " " $0
	s = para
	named = ""
	while (match(s, /`Example[A-Za-z0-9_]*`/)) {
		named = substr(s, RSTART + 1, RLENGTH - 2)
		s = substr(s, RSTART + RLENGTH)
	}
}
END { exit bad }
' example_test.go "$readme" || missing=1
size=$(wc -c <"$readme") ceiling=$(cat readme_ceiling.txt)
if ((size > ceiling)); then
	echo "$readme: $size bytes, over the committed ceiling of $ceiling (readme_ceiling.txt)"
	missing=1
fi
exit $missing
