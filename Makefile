# Developer entry points. The repo is plain Go; everything below is a
# thin wrapper over the toolchain so CI and local runs stay identical.

GO ?= go

.PHONY: build test race vet verify bench bench-crawl bench-check telemetry-smoke fleet-smoke fleetz-smoke mining-smoke miningz-smoke profile-mining

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# verify runs the whole gate: build, vet, tests, race tests.
verify:
	sh scripts/verify.sh

# bench runs the mining benchmark suite and writes BENCH_mining.json.
bench:
	sh scripts/bench.sh

# bench-crawl runs the crawl benchmark suite (serial vs parallel
# monitor phase + end-to-end study) and writes BENCH_crawl.json.
bench-crawl:
	SUITE=crawl sh scripts/bench.sh

# bench-check re-runs a cheap slice of both benchmark suites and gates
# ns/op against the committed BENCH_*.json baselines (BENCH_TOL=4.0x).
bench-check:
	sh scripts/bench_check.sh

# telemetry-smoke runs a seeded chaos crawl+mine with -metrics-out and
# validates the snapshot against the golden key-set.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# fleet-smoke runs the same seeded chaos crawl single-process and as a
# 4-shard fleet under worker kills, and requires byte-identical output
# plus the fleet telemetry keys.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# fleetz-smoke and miningz-smoke run scripts/statusz_smoke.sh for one
# live status endpoint: a 4-shard chaos crawl (/fleetz) or a blocked
# mine (/miningz) with the debug server up, asserting the endpoint's
# JSON schema, the wpnstat dashboard, and the run's event ledger.
fleetz-smoke:
	sh scripts/statusz_smoke.sh fleetz

# mining-smoke runs the mining parity gates — exact vs its naive
# oracle, blocked vs exact (3 seeds × 3 linkages), memoized vs full cut
# sweep, incremental-converges-to-batch — and fails if any listed test
# no longer exists.
mining-smoke:
	sh scripts/mining_smoke.sh

miningz-smoke:
	sh scripts/statusz_smoke.sh miningz

# profile-mining captures CPU/heap pprof profiles of the n=50k blocked
# clustering benchmark plus its sweep_ns cut-sweep attribution, under
# PROFILE_DIR (never clobbers the committed BENCH_mining.json).
profile-mining:
	sh scripts/profile_mining.sh
