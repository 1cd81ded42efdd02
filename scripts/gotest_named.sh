#!/bin/sh
# gotest_named.sh — run the named tests of one package and fail unless
# every named test ran and passed. A bare `go test -run` regex selects
# nothing for a renamed or deleted test and still exits 0, so a smoke
# list built on one shrinks silently; this gate fails instead.
#
#   sh scripts/gotest_named.sh ./internal/core/ TestA TestB
#   sh scripts/gotest_named.sh ./internal/crawler/ TestSerialParallelParity/seed11
#
# A name may carry one subtest level (Test/sub). The -run pattern is
# built per level, so a call mixing bare and subtest names narrows
# every listed test to the listed subtests: use one call per shape.
set -eu

pkg="$1"
shift
top=""
sub=""
for name in "$@"; do
	top="$top${top:+|}${name%%/*}"
	case "$name" in
	*/*) sub="$sub${sub:+|}${name#*/}" ;;
	esac
done
run="^($top)\$"
if [ -n "$sub" ]; then
	run="$run/^($sub)\$"
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT
status=0
go test -count=1 -v -run "$run" "$pkg" >"$out" 2>&1 || status=$?
missing=""
for name in "$@"; do
	grep -Fq -- "--- PASS: $name (" "$out" || missing="$missing $name"
done
if [ "$status" -ne 0 ] || [ -n "$missing" ]; then
	cat "$out"
	if [ -n "$missing" ]; then
		echo "gotest_named: did not run and pass in $pkg:$missing" >&2
	fi
	exit 1
fi
grep -E -- '^ *--- |^ok ' "$out"
