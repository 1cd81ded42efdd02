#!/bin/sh
# statusz_smoke.sh — live-introspection gate for one status endpoint.
# It starts a run with the debug server up, scrapes the endpoint through
# cmd/wpnstat while the process lingers, asserts the published status's
# JSON schema and text dashboard, and checks the run's event ledger.
#
#   fleetz:  a 4-shard chaos crawl (wpncrawl); the fleet ledger must
#            exist and record shard starts.
#   miningz: a small blocked mine (pushadminer), first rerun twice
#            without the server to check the mining ledger is
#            byte-identical across reruns; the debug run's ledger must
#            equal those bytes, and its metrics snapshot must carry the
#            blocked-only golden keys.
#
# Dependency-free: POSIX sh + the Go toolchain (no curl — wpnstat is the
# HTTP client).
#
#   sh scripts/statusz_smoke.sh fleetz|miningz
set -eu

cd "$(dirname "$0")/.."

EP="${1:-}"
case "$EP" in
fleetz | miningz) ;;
*)
	echo "usage: sh scripts/statusz_smoke.sh fleetz|miningz" >&2
	exit 2
	;;
esac

TMPD="$(mktemp -d)"
PID=""
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$TMPD"
}
trap cleanup EXIT

fail() {
	echo "$EP smoke: $*" >&2
	exit 1
}

# require FILE PATTERN...: fail unless FILE matches every pattern.
require() {
	file="$1"
	shift
	for want in "$@"; do
		grep -q -- "$want" "$file" || {
			cat "$file" >&2
			fail "$(basename "$file") missing $want"
		}
	done
}

go build -o "$TMPD/wpnstat" ./cmd/wpnstat

case "$EP" in
fleetz)
	go build -o "$TMPD/wpncrawl" ./cmd/wpncrawl
	RUN="$TMPD/wpncrawl -seed 11 -scale 0.002 -days 7
		-chaos-profile acceptance,workercrashes=0.05
		-shards 4 -fleet-dir $TMPD/fleet
		-fleet-ledger $TMPD/ledger.jsonl -out $TMPD/wpns.json"
	;;
miningz)
	go build -o "$TMPD/pushadminer" ./cmd/pushadminer
	MINE="$TMPD/pushadminer -seed 11 -scale 0.002 -days 7 -blocked -table 3"

	echo "==> miningz smoke: ledger byte-stability across reruns"
	$MINE -quiet -mining-ledger "$TMPD/ledger1.jsonl" >/dev/null
	$MINE -quiet -mining-ledger "$TMPD/ledger2.jsonl" >/dev/null
	cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger2.jsonl" ||
		fail "reruns at a fixed seed produced different ledgers"
	[ -s "$TMPD/ledger1.jsonl" ] || fail "empty ledger"
	require "$TMPD/ledger1.jsonl" '"kind":"stage_begin"' '"kind":"stage_end"' \
		'"kind":"block_clustered"' '"kind":"cut_chosen"'

	RUN="$MINE -mining-ledger $TMPD/ledger3.jsonl -metrics-out $TMPD/metrics.json"
	;;
esac

echo "==> $EP smoke: run with debug server"
$RUN -debug-addr 127.0.0.1:0 -linger 120s >/dev/null 2>"$TMPD/run.log" &
PID=$!

# The server binds an ephemeral port; wait for the log line announcing it.
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR="$(sed -n 's|.*debug server on http://\([^ ]*\) .*|\1|p' "$TMPD/run.log" | head -1)"
	[ -n "$ADDR" ] && break
	kill -0 "$PID" 2>/dev/null || {
		cat "$TMPD/run.log" >&2
		fail "run exited before serving"
	}
	sleep 0.2
	i=$((i + 1))
done
[ -n "$ADDR" ] || fail "debug server never announced an address"

# Poll until the run has published a status: the fleet's first publish
# lands right after seeding; a short mine is usually caught in its
# lingering done-state snapshot, which is the point — the status stays
# inspectable after the run.
i=0
while [ $i -lt 300 ]; do
	if "$TMPD/wpnstat" -addr "$ADDR" -endpoint "$EP" -once -json >"$TMPD/$EP.json" 2>/dev/null &&
		grep -q '"active": true' "$TMPD/$EP.json"; then
		break
	fi
	kill -0 "$PID" 2>/dev/null || {
		cat "$TMPD/run.log" >&2
		fail "run died before /$EP became active"
	}
	sleep 0.2
	i=$((i + 1))
done
grep -q '"active": true' "$TMPD/$EP.json" || {
	cat "$TMPD/$EP.json" >&2
	fail "/$EP never reported an active status"
}

echo "==> $EP smoke: schema assertions"
case "$EP" in
fleetz)
	require "$TMPD/$EP.json" '"shards": 4' '"live_shards"' '"heartbeats"' '"kills"' \
		'"records"' '"sim_time"' '"window_end"' '"workers"' \
		'"shard": 3' '"restart_budget"' '"merge_lag_cycles"'
	;;
miningz)
	require "$TMPD/$EP.json" '"stage"' '"mode": "blocked"' '"records"' '"blocks_total"' \
		'"blocks_done"' '"heights_total"' '"pairs_exact"' '"pairs_pruned"' \
		'"sweep_blocks_rescored"' '"sweep_memo_hits"' \
		'"recluster_queue_depth"' '"done"'
	;;
esac

echo "==> $EP smoke: text dashboard"
"$TMPD/wpnstat" -addr "$ADDR" -endpoint "$EP" -once >"$TMPD/$EP.txt"
case "$EP" in
fleetz) require "$TMPD/$EP.txt" 'fleet ' 'shard' 'heartbeats' ;;
miningz) require "$TMPD/$EP.txt" 'mining ' 'blocked' 'blocks ' 'pairs ' 'heights ' ;;
esac
sed 's/^/    /' "$TMPD/$EP.txt"

# waitfiles N FILE...: wait up to N polls for every FILE to be non-empty
# (each is written before the linger sleep).
waitfiles() {
	n="$1"
	shift
	i=0
	while [ $i -lt "$n" ]; do
		ready=1
		for f in "$@"; do
			[ -s "$f" ] || ready=0
		done
		[ $ready -eq 1 ] && return 0
		kill -0 "$PID" 2>/dev/null || return 0
		sleep 0.2
		i=$((i + 1))
	done
}

echo "==> $EP smoke: event ledger"
case "$EP" in
fleetz)
	# Let the desktop fleet finish so its ledger is written (ledger
	# paths derive per device from the base path, like checkpoints:
	# ledger.jsonl → ledger.desktop.jsonl).
	LEDGER="$TMPD/ledger.desktop.jsonl"
	waitfiles 600 "$LEDGER"
	[ -s "$LEDGER" ] || {
		cat "$TMPD/run.log" >&2
		fail "no ledger written"
	}
	require "$LEDGER" '"kind":"shard_started"'
	;;
miningz)
	waitfiles 300 "$TMPD/ledger3.jsonl" "$TMPD/metrics.json"
	[ -s "$TMPD/ledger3.jsonl" ] || fail "no ledger from debug run"
	[ -s "$TMPD/metrics.json" ] || fail "no metrics snapshot"
	# The ledger must be sink-independent: attaching telemetry and the
	# debug server must not change a single byte of the event stream.
	cmp -s "$TMPD/ledger1.jsonl" "$TMPD/ledger3.jsonl" ||
		fail "attaching telemetry changed the ledger bytes"

	echo "==> miningz smoke: blocked-only golden keys"
	missing=0
	while IFS= read -r key; do
		case "$key" in '' | '#'*) continue ;; esac
		if ! grep -q "\"$key\"" "$TMPD/metrics.json"; then
			echo "miningz smoke: snapshot missing golden key \"$key\"" >&2
			missing=$((missing + 1))
		fi
	done <<KEYS
$(sed -n '/^# mining-blocked-only/,$p' scripts/telemetry_keys.txt)
KEYS
	[ "$missing" -eq 0 ] || fail "$missing golden key(s) missing"
	;;
esac

kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

echo "$EP smoke: OK (live /$EP schema, dashboard render, event ledger)"
