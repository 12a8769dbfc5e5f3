#!/bin/sh
# Dead-path audit: prints, one per line and sorted, every non-test function
# under internal/ that nothing but its own package's tests reaches. Names
# are pkg.Recv.Name or pkg.Name, pkg being the directory under internal/
# (lsm.Tree.GetBytes, sql/codec.EncodeRow): taken from the declaration
# line, never a line number, so an edit elsewhere in a file does not rename
# anything. The root package's API and the main packages are out of scope.
#
# Three sets of code run under coverage, each counting every package of the
# main module:
#   - each main-module package's tests, one package at a time, whose hits in
#     that package's own files are dropped;
#   - the benchmark module's `go test .`;
#   - each examples/* program, built with -cover and run once.
# A function is reached when any of those covers one of its statements.
# Progress goes to stderr, the list to stdout; scripts/verify.sh holds it
# against scripts/deadpaths.baseline. Test results come from the build cache
# when the code has not changed; GOFLAGS=-count=1 runs them all again.
set -eu
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mod=$(go list -m)

# Profiles are listed with the package whose own files they do not count,
# "-" for none.
: >"$work/profiles"
i=0
for pkg in $(go list ./...); do
	i=$((i + 1))
	echo "deadpaths: go test $pkg" >&2
	go test -coverpkg=./... -coverprofile="$work/p$i.out" "$pkg" >"$work/log" 2>&1 || {
		cat "$work/log" >&2
		exit 1
	}
	[ ! -f "$work/p$i.out" ] || echo "$work/p$i.out $pkg" >>"$work/profiles"
done
echo "deadpaths: benchmark module go test ." >&2
(cd benchmark && go test -coverpkg="$mod/..." -coverprofile="$work/bench.out" . >"$work/log" 2>&1) || {
	cat "$work/log" >&2
	exit 1
}
echo "$work/bench.out -" >>"$work/profiles"
for ex in examples/*/; do
	name=$(basename "$ex")
	echo "deadpaths: examples/$name" >&2
	go build -cover -coverpkg=./... -o "$work/$name" "./$ex"
	mkdir "$work/cov-$name" "$work/tmp-$name"
	GOCOVERDIR="$work/cov-$name" TMPDIR="$work/tmp-$name" "$work/$name" >"$work/log" 2>&1 || {
		cat "$work/log" >&2
		exit 1
	}
	go tool covdata textfmt -i="$work/cov-$name" -o "$work/ex-$name.out"
	echo "$work/ex-$name.out -" >>"$work/profiles"
done

# One profile of internal/: every block any profile names, with the highest
# count any profile that may count it gives it.
{
	echo "mode: set"
	while read -r file own; do
		awk -v own="$own" -v pre="$mod/internal/" 'FNR > 1 && index($1, pre) == 1 {
			f = $1; sub(/:.*/, "", f); sub(/\/[^\/]*$/, "", f)
			print $1, $2, (f == own ? 0 : ($3 > 0))
		}' "$file"
	done <"$work/profiles" |
		awk '{ k = $1 " " $2; if (!(k in n) || $3 > n[k]) n[k] = $3 } END { for (k in n) print k, n[k] }'
} >"$work/merged.out"
go tool cover -func="$work/merged.out" >"$work/funcs"

# Functions at 0.0 %, named from their declaration lines.
awk '$NF == "0.0%" { split($1, a, ":"); print a[1], a[2] }' "$work/funcs" |
	while read -r file line; do
		path=${file#"$mod"/}
		pkg=$(dirname "${path#internal/}")
		decl=$(sed -n "${line}p" "$path")
		recv=$(echo "$decl" | sed -nE 's/^func \(([A-Za-z_0-9]+ +)?\*?([A-Za-z_0-9]+).*/\2./p')
		fn=$(echo "$decl" | sed -nE 's/^func (\([^)]*\) *)?([A-Za-z_0-9]+).*/\2/p')
		echo "$pkg.$recv$fn"
	done | sort -u
