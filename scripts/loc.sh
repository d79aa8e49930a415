#!/usr/bin/env bash
# Size report for CHANGES.md entries (ROADMAP item 3): non-test Go lines
# outside bench/, and exported symbols per package — top-level funcs,
# types, consts and vars plus methods on exported types, counted from
# the files `go list` says each package builds. Run before and after a
# change and quote both.
set -euo pipefail
cd "$(dirname "$0")/.."

lines=$(git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$' | grep -v '^bench/' | xargs cat | wc -l)
echo "non-test Go lines (bench/ excluded): $lines"

echo "exported symbols per package:"
go list -f '{{.ImportPath}} {{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' ./... |
while read -r pkg files; do
	# shellcheck disable=SC2086
	n=$(awk '
		/^func [A-Z]/ { n++ }
		/^func \([A-Za-z_]+ \*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) [A-Z]/ { n++ }
		/^(type|const|var) [A-Z]/ { n++ }
		/^(const|var) \($/ { block = 1; next }
		block && /^\)/ { block = 0 }
		block && /^\t[A-Z][A-Za-z0-9_]*([ ,]|$)/ { n++ }
		END { print n + 0 }
	' $files)
	if [ "$n" -gt 0 ]; then printf '  %-28s %4d\n' "$pkg" "$n"; fi
done | awk '{ print; total += $2 } END { printf "  %-28s %4d\n", "total", total }'
