#!/usr/bin/env bash
# Pre-PR gate: every check a change must pass before review.
# Run from the repo root:  ./scripts/check.sh
# CHECK_QUICK=1 stops before the last four stages (crash matrix,
# corruption matrix, fuzz smokes, the race suite) for fast
# iteration; the full gate is still required before review.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=${CHECK_QUICK:-0}
tree_before=$(git status --porcelain)

# stage NAME ends the running stage, printing its elapsed seconds, and
# starts NAME; a bare "stage" only ends the running one.  The times are
# reported, not gated.
stage_name=
stage_start=$SECONDS
stage() {
    if [ -n "$stage_name" ]; then
        echo "   ($stage_name: $((SECONDS - stage_start)) s)"
    fi
    stage_name=${1:-}
    stage_start=$SECONDS
    if [ -n "$stage_name" ]; then
        echo "== $stage_name"
    fi
}

stage "gofmt"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -s needed:"
    echo "$unformatted"
    exit 1
fi

stage "go vet"
go vet ./...

stage "iamlint"
go run ./cmd/iamlint ./...
# The analyzer's own tests: every bad fixture flagged, good fixtures
# clean, and one real mutation per pass caught on its line.
go test -count=1 ./cmd/iamlint

stage "go build -tags invariants"
go build -tags invariants ./...
go test -tags invariants ./internal/invariants/
# The data-movement layers under the tag: recycled block buffers, gather
# chunks and read-ahead windows are poisoned before reuse, so a stale
# alias fails a checksum or a comparison in these tests.  internal/core
# is not on the line: its tests trip the overlapping-range defect under
# the tag (DESIGN.md, "Known defects").
go test -tags invariants -count=1 ./internal/block ./internal/table ./internal/tableset ./internal/lsm

stage "metrics smoke test, merge-read tests (-tags invariants)"
# The merge-read tests under the tag: windows and gathers are poisoned on
# their way back to their pools, and the count of windows on loan (kept
# under the tag only) must return to zero on all four engines.
go test -tags invariants -run 'TestMetricsSmoke|TestNoWindowLeftOnLoan|TestMergesDoNotEvictUserBlocks|TestScansBesideFlushCascades' -count=1 .
# User scans beside flush cascades borrow from the same pools: repeatedly,
# under the detector.
go test -race -run TestScansBesideFlushCascades -count=10 .

stage "hot-path allocation gate"
# A disabled EventListener must add zero allocations per op to Get/Put.
go test -run 'TestInstrumentationZeroAlloc|TestHotPathAllocations' -count=1 .
go test -run TestConcurrentZeroAlloc -count=1 ./internal/histogram/
# Moving a record down a level must not allocate per record: the table
# writer and the gather under every flush, merge and split.
go test -run TestTableAppendAllocs -count=1 ./internal/table/
go test -run TestBuildRunsAllocs -count=1 ./internal/tableset/
# Nor may reading the inputs of a merge: no cache fill, pooled read-ahead
# windows and gather, at most 0.15 bytes allocated per byte read.
go test -run TestMergeReadAllocs -count=1 ./internal/tableset/
# A read pins a version of the table set without allocating, an iterator
# costs a child per level however many tables the levels hold, a point
# read served from cached blocks allocates nothing (TestSetGetAllocs; and
# TestHotPathAllocations above, through the DB), and a short scan over a
# node of four sequences stays at its pinned 17 allocations: an iterator
# per sequence and the merging heaps, with no index reader or key buffer
# per sequence, since a sequence's fence pointers are decoded once.
go test -run 'TestPinAndNewIterAllocs|TestSetGetAllocs|TestShortScanAllocs' -count=1 ./internal/tableset/
# A separated value is read into a pooled record buffer and appended to
# the caller's: GetInto into a buffer with room, and an iterator's Value
# once its buffer has grown, allocate nothing.  A collection reads its
# segment into the buffer the value store lends it, so a second one
# allocates less than a segment's bytes.
go test -run 'TestSeparatedReadAllocs|TestCollectionReusesScanBuffer' -count=1 .

stage "vfs"
# The wrappers and the seek model every test stands on; the race suite only reruns them in the full gate.
go test -count=1 ./internal/vfs

stage "memtable: one writer beside lock-free readers (-race)"
# The commit leader is the memtable's only writer; readers and iterators
# run beside it without locks.  Raced here so the quick gate checks the
# contract, not only the full gate's race suite.
go test -race -count=5 -run TestConcurrentReadDuringWrite ./internal/memtable

stage "open-loop golden"
# The judge of ROADMAP item 3 (the cascade off the writer), about 7 s.
go test -count=1 -run 'TestAllExperimentsEndToEnd/openloop$' ./internal/harness

stage "examples"
# Each example opens a store in a temp directory of its own, drives it and
# removes the directory: exit 0, and the tree check at the end sees
# nothing left behind.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

stage "sharded front-end gates"
# Routing, cross-shard atomicity, iterators, recovery markers, the
# sharded golden-determinism run, and what the router is for: one
# pipeline per store, shown exactly rather than timed.  Its WAL syncs run
# in parallel (TestShardedStoresSyncInParallel holds each sync until one
# per shard is in flight); within a store, writers that queue behind a
# leader commit as one group (TestCommitQueueIsSequenceOrdered, in the
# race suite below).  No benchmark workload measures the throughput
# either buys.  The cross-shard hammer runs repeatedly,
# plain and under -race: it is the test that catches a merge dropping a
# version the watermark still needs, and it used to be the gate's own
# flake.
go test -run TestSharded -count=1 .
go test -run TestShardedCrossShardHammer -count=50 .
go test -race -run TestShardedCrossShardHammer -count=10 .

stage "observability gates"
# Tracing/timeline units, byte-identical golden determinism, the pinned
# stream of structural steps (events, spans, counters), the disabled-path
# allocation gate, the commit path's pinned allocation count, the
# debug-handler endpoints (POST /scrub on a damaged store included), and
# the audit that the scheduler's workers are the DB's only goroutines;
# then the CLI that serves them, built and run over a real directory on
# an ephemeral port until interrupted.
go test -run 'TestGoldenDeterminism|TestStepStreamPinned|TestTraceSpansPresent|TestDebugHandlers|TestDebugTracesDisabled|TestScrubEndpointRunsPass|TestOnlySchedulerStartsGoroutines|TestObservabilityHotPathZeroAlloc|TestCommitPathAllocs' -count=1 .
go test -count=1 ./cmd/iamdb
go test -count=1 ./internal/trace/ ./internal/metrics/

stage "key-value separation gates"
# Value-log unit suite and the DB-level separation tests (with -race: the
# GC step, commit leader and readers share the log).  The kvsep
# experiment's cells, throughput ratios and crossover are a golden under
# internal/harness/testdata/small.  The scheduler test runs every kind of
# background step on real workers and counts the goroutines Close leaves:
# repeatedly, under the detector.  So does the checkpoint taken while the
# commit leader is halfway through writing a collector's rewrite.
go test -count=1 ./internal/vlog/ ./internal/amp/
go test -race -run 'KVSep|Vlog|VLog' -count=1 .
go test -race -run TestSchedulerRunsEveryStep -count=10 .
go test -race -run TestKVSepCheckpointDuringCollection -count=20 .

stage "hand-in check: the benchmark builds, tests and runs clean"
# What the driver does after every PR, from the committed files: bench/
# vets and passes its tests, and each of the seven workloads of
# BENCHMARK.json runs for 5 s and reports no failed operation.  Each
# workload's ops_s and p50_us are printed from its result line.
go vet ./bench
go test -count=1 ./bench
benchbin=$(mktemp -d)
go build -o "$benchbin/bench" ./bench
for w in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    if ! out=$("$benchbin/bench" --workload "$w" --seed 1 --seconds 5 --trace 0) || ! grep -q '"failed":0[,}]' <<<"$out"; then
        echo "bench workload $w did not finish with \"failed\":0:"
        tail -n 3 <<<"$out"
        exit 1
    fi
    echo "$w: $(tail -n 1 <<<"$out" | grep -oE '"(ops_s|p50_us)":\{[^}]*\}' | tr '\n' ' ')"
done
rm -rf "$benchbin"

# The gate must leave the work tree as it found it (clean, when run on a
# commit): anything it, or a build, test or bench it runs, drops into the
# checkout is a missing .gitignore entry or a smoke writing where it
# should not.
clean_tree() {
    if [ "$(git status --porcelain)" != "$tree_before" ]; then
        echo "the gate changed the work tree:"
        diff <(echo "$tree_before") <(git status --porcelain) || true
        exit 1
    fi
}

# The ROADMAP's size measure, reported and not gated: the lines of the
# .go files git tracks outside bench/, less _test.go files and testdata/;
# then, by the same filter, the parts a re-anchor counts.
report_lines() {
    local files
    files=$(git ls-files '*.go' |
        grep -v -e '_test\.go$' -e '\(^\|/\)testdata/' -e '^bench/')
    lines() { grep -e "$1" <<<"$files" | xargs cat | wc -l; }
    echo "non-test Go lines outside bench/: $(lines .)"
    echo "  root package: $(lines '^[^/]*$')"
    for dir in internal cmd examples; do
        echo "  $dir/: $(lines "^$dir/")"
    done
    echo "  tooling, cmd/iamlint + internal/harness + internal/vfs:" \
        "$(lines '^\(cmd/iamlint\|internal/harness\|internal/vfs\)/')"
}

if [ "$quick" = "1" ]; then
    echo "CHECK_QUICK=1: skipping crash matrix, corruption matrix, fuzz smokes and race suite."
    stage
    clean_tree
    echo "All quick checks passed in $SECONDS s."
    report_lines
    exit 0
fi

stage "crash matrix (bounded)"
# Systematic crash-point exploration: crash at sampled sync/write
# boundaries of the IAM and LSA engines, reopen, and check the
# durability oracle.  IAMDB_CRASH_FULL=1 runs the exhaustive sweep
# (every op index, all engines, all corruption modes — ~20s).
go test -run Crash -count=1 .

stage "corruption matrix (bounded)"
# Latent-fault exploration: flip/zero single bytes at ≥100 sampled
# (file, offset) points per engine, reopen, and check the no-wrong-
# bytes oracle (the test itself asserts the point-count floor).
# IAMDB_ROT_FULL=1 sweeps every point, all engines, both modes.
go test -run Corruption -count=1 .

stage "fuzz smokes"
# Short fuzz bursts over the byte-level decoders: arbitrary input must
# yield typed errors or clean success, never a panic or hang.  The
# checked-in corpora under testdata/fuzz/ replay first.
go test -run '^$' -fuzz FuzzBlockDecode -fuzztime 5s ./internal/block/
go test -run '^$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/wal/
go test -run '^$' -fuzz FuzzTableOpen -fuzztime 5s ./internal/table/
go test -run '^$' -fuzz FuzzVLogDecode -fuzztime 5s ./internal/vlog/

stage "go test -race"
# Everything under the detector except the seventeen golden experiments of
# internal/harness: each is one goroutine by construction (InlineBackground,
# no sampler), so the detector has nothing to observe in
# them and used to spend ~65 minutes not observing it.  -short skips
# exactly those two tests (TestAllExperimentsEndToEnd,
# TestExperimentRepeatsExactly); the rest of the package, its small hash
# loads and workloads, still runs raced, and the goldens run plain, cell
# for cell, in the line after.  First, by name: the one test that fills
# the immutable-memtable queue by construction (each drain held on a
# hook, not by timing), once, so a race between the queue's publish, the
# drain and the readers fails under its own name.  Then the test whose
# writers scribble on their buffers as soon as Put returns: a leader
# still reading a follower's uncopied slices races with the scribble.
go test -race -run TestImmutableQueue -count=1 .
go test -race -run TestStoreKeepsNoCallerBytes -count=1 .
go test -race $(go list ./... | grep -v '/internal/harness$')
go test -race -short ./internal/harness
go test -count=1 ./internal/harness

stage
clean_tree
echo "All checks passed in $SECONDS s."
report_lines
