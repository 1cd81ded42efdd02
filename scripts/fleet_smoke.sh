#!/bin/sh
# fleet_smoke.sh — sharded-crawl gate: run the same seeded chaos crawl
# twice, single-process and as a 4-shard fleet with worker kills
# (workercrashes chaos), and require the two record exports to be
# byte-identical. Then validate the fleet telemetry instruments against
# the full golden key-set (scripts/telemetry_keys.txt, including the
# fleet-only section the unsharded telemetry smoke skips) and check
# that the self-healing machinery actually fired. Dependency-free:
# POSIX sh + the Go toolchain.
#
#   sh scripts/fleet_smoke.sh
set -eu

cd "$(dirname "$0")/.."

TMPD="$(mktemp -d)"
trap 'rm -rf "$TMPD"' EXIT

PROFILE="acceptance,workercrashes=0.05"

echo "==> fleet smoke: single-process baseline"
go run ./cmd/wpncrawl -seed 11 -scale 0.002 -days 7 \
	-chaos-profile "$PROFILE" \
	-out "$TMPD/base.json"

echo "==> fleet smoke: 4-shard fleet under worker kills"
go run ./cmd/wpncrawl -seed 11 -scale 0.002 -days 7 \
	-chaos-profile "$PROFILE" \
	-shards 4 -fleet-dir "$TMPD/fleet" \
	-out "$TMPD/fleet.json" \
	-metrics-out "$TMPD/metrics.json" 2> "$TMPD/fleet.log"
cat "$TMPD/fleet.log" >&2

cmp -s "$TMPD/base.json" "$TMPD/fleet.json" || {
	echo "fleet smoke: 4-shard output differs from single-process baseline" >&2
	exit 1
}

# The chaos plan must have exercised the control plane — a run with
# zero kills proves parity of nothing.
grep -Eq "fleet: .*kills=[1-9]" "$TMPD/fleet.log" || {
	echo "fleet smoke: chaos plan produced no worker kills" >&2
	exit 1
}

# The fleet mine runs the default (cached) clustering path, so stop at
# the blocked-only marker; `scripts/statusz_smoke.sh miningz` validates
# those keys on a blocked mine.
missing=0
while IFS= read -r key; do
	case "$key" in ''|'#'*) continue ;; esac
	if ! grep -q "\"$key\"" "$TMPD/metrics.json"; then
		echo "fleet smoke: snapshot missing golden key \"$key\"" >&2
		missing=$((missing + 1))
	fi
done <<KEYS
$(sed '/^# mining-blocked-only/,$d' scripts/telemetry_keys.txt)
KEYS
[ "$missing" -eq 0 ] || { echo "fleet smoke: $missing golden key(s) missing" >&2; exit 1; }

echo "fleet smoke: OK (sharded output byte-identical, all golden keys present)"
