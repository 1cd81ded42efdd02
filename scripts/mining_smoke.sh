#!/bin/sh
# mining_smoke.sh — the mining parity gates: the exact path against its
# naive oracle, blocked against exact, the memoized cut sweep against the
# full-sweep oracle, incremental convergence to batch, the pair
# accounting, and the persisted medoid index. Every listed test must run
# and pass (see gotest_named.sh), so a rename cannot drop one silently.
set -eu

cd "$(dirname "$0")/.."

sh scripts/gotest_named.sh ./internal/core/ \
	TestDistanceMatchesNaiveBitForBit \
	TestClusterParityNaiveVsCached \
	TestClusterParityBlockedVsExact \
	TestBlockedComponentsPartition \
	TestBlockedFixedCutHeight \
	TestClusterPairAccounting \
	TestIncrementalConvergesToBatch \
	TestIncrementalOptionReplaysToBatch \
	TestIncrementalLinkageVariants \
	TestSweepMemoParityMatrix \
	TestSweepMemoKParityInversionCorpus \
	TestBlockedFullSweepOptionParity \
	TestMedoidIndexRoundTrip \
	TestLoadMedoidIndexRejectsBadBands
