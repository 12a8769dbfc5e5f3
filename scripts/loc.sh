#!/bin/sh
# Code lines — not blank, not comment, not in a _test.go file — per package
# of the main module (benchmark/ is its own module and is left out), and
# their total. With a git ref, also that ref's figures and the difference:
# the unit ROADMAP's Hygiene note asks simplicity targets to be set in.
#
#	scripts/loc.sh            # the working tree
#	scripts/loc.sh HEAD~1     # the working tree against a ref
set -eu
cd "$(dirname "$0")/.."

# count reads "<package dir> <file>" lines and prints "<package dir> <code
# lines>", one line per package. A line is code when something is left after
# comments go: //… to the end of the line (outside a string or rune literal),
# /*…*/ across lines.
count() {
	while read -r pkg file; do
		awk -v pkg="$pkg" '
		{
			line = $0; out = ""; q = ""
			while (line != "") {
				c = substr(line, 1, 1); two = substr(line, 1, 2)
				if (block) {
					if (two == "*/") { block = 0; line = substr(line, 3) } else line = substr(line, 2)
				} else if (q == "`") {
					if (c == "`") q = ""
					out = out c; line = substr(line, 2)
				} else if (q != "") {
					if (c == "\\") { out = out two; line = substr(line, 3); continue }
					if (c == q) q = ""
					out = out c; line = substr(line, 2)
				} else if (two == "//") {
					break
				} else if (two == "/*") {
					block = 1; line = substr(line, 3)
				} else {
					if (c == "\"" || c == "`" || c == "\047") q = c
					out = out c; line = substr(line, 2)
				}
			}
			if (q != "`") q = ""
			if (out ~ /[^ \t]/ || q == "`") n++
		}
		END { print pkg, n + 0 }' "$file"
	done | awk '{ n[$1] += $2 } END { for (p in n) print p, n[p] }' | sort
}

# files lists "<package dir> <file>" for the non-test Go files under dir.
files() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | sed 's|^\./||' | sort) |
		while read -r f; do
			d=$(dirname "$f")
			echo "$d $1/$f"
		done
}

now=$(mktemp)
trap 'rm -rf "$now" "${then:-}" "${tree:-}"' EXIT
files . | count >"$now"

if [ $# -eq 0 ]; then
	awk '{ printf "%7d  %s\n", $2, $1; t += $2 } END { printf "%7d  total\n", t }' "$now"
	exit 0
fi

then=$(mktemp)
tree=$(mktemp -d)
git archive "$1" | tar -x -C "$tree"
files "$tree" | count >"$then"
echo "code lines: $1 -> working tree"
awk '
	FNR == NR { was[$1] = $2; seen[$1] = 1; next }
	{ is[$1] = $2; seen[$1] = 1 }
	END {
		for (p in seen) {
			a = was[p] + 0; b = is[p] + 0; ta += a; tb += b
			if (a != b) printf "%7d -> %7d  %+6d  %s\n", a, b, b - a, p | "sort -k5"
		}
		close("sort -k5")
		printf "%7d -> %7d  %+6d  total (packages that did not change are left out)\n", ta, tb, tb - ta
	}' "$then" "$now"
