#!/bin/sh
# verify.sh — full local verification: build, vet, unit tests, and the
# race-enabled suite. This is what CI runs and what `make verify`
# invokes; keep it dependency-free (POSIX sh + the Go toolchain).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> mining parity smoke"
sh scripts/mining_smoke.sh

echo "==> parallel-monitor parity smoke (serial vs parallel, small n)"
sh scripts/gotest_named.sh ./internal/crawler/ TestSerialParallelParity/seed11

echo "==> shard-state save smoke (.bak fallback, EncodeState vs State on every save)"
sh scripts/gotest_named.sh ./internal/crawler/ TestShardStateBackupFallback
sh scripts/gotest_named.sh ./internal/fleet/ TestEncodeStateMatchesState

echo "==> ledger and status smoke (line format, seq-gap reader, /fleetz and /miningz handler)"
sh scripts/gotest_named.sh ./internal/telemetry/ TestLedgerLineFormat TestReadLedgerSeq TestLedgerAppend TestStatusHandler

# bench_check subsumes the old bench smokes: it runs the same cheap
# slices (mining n=200, crawl n=50, 1x) and additionally gates them
# against the committed BENCH_*.json baselines.
sh scripts/bench_check.sh

sh scripts/telemetry_smoke.sh

sh scripts/fleet_smoke.sh

sh scripts/statusz_smoke.sh fleetz

sh scripts/statusz_smoke.sh miningz

echo "verify: OK"
