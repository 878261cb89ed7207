#!/usr/bin/env bash
# docs-check fails when a document names a path that does not exist: the
# package of a `go run ./…` command, or a path in one of the cmd,
# internal, scripts, testdata, match or examples trees written in an
# inline code span.
# A glob must match at least one file.
#
# It also holds README.md to the public surface in testdata/api.txt, in
# both directions: every `cem.X` the README names, and every `WithX(`
# option it names bare or as `cem.WithX(`, must be in the surface, and
# every `With…` function of package repro must be named in the README.
# Run from the repository root:
#
#	bash scripts/docs-check.sh [doc ...]   (default README.md; make docs-check)
set -euo pipefail

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
exit $missing
