#!/usr/bin/env bash
# docs-check fails when a document names a path that does not exist: the
# package of a `go run ./…` command, or a path in one of the cmd,
# internal, scripts, testdata, match or examples trees written in an
# inline code span.
# A glob must match at least one file. Run from the repository root:
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
exit $missing
