#!/usr/bin/env bash
# Benchmark suite:
#  * ingest_bench — invoke overhead + ingestion for the resident task
#    pool; writes BENCH_ingest.json and fails if the pooled invoke path
#    is not at least 2x cheaper than spawn-per-run.
#  * query_bench — vectorized (columnar) query execution vs. the
#    row-at-a-time baseline; writes BENCH_query.json with a
#    per-operator breakdown, fails (smoke and full) if the vectorized
#    pure-scan query is slower than row-at-a-time, and in full runs
#    enforces the vectorized group-by / join speedup bars.
#  * storage_bench — background LSM maintenance vs. synchronous
#    flush/merge on the writer path; writes BENCH_storage.json and
#    fails if the merge-point p99 put reduction is below 5x or the
#    ingest speedup under concurrent probes is below 1.3x.
#  * serve_bench — concurrent TCP clients against the network SQL++
#    frontend; writes BENCH_serve.json and fails on any wrong result,
#    or (full runs) if the 1k-connection tier leaves requests
#    unanswered.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   shrink iteration counts / dataset sizes for CI
set -euo pipefail
cd "$(dirname "$0")/.."

args=()
if [[ "${1:-}" == "--smoke" ]]; then
    export IDEA_BENCH_SMOKE=1
    args+=(--smoke)
fi

cargo run --release --offline -p idea-bench --bin ingest_bench -- ${args[@]+"${args[@]}"}
cargo run --release --offline -p idea-bench --bin query_bench -- ${args[@]+"${args[@]}"}
cargo run --release --offline -p idea-bench --bin storage_bench -- ${args[@]+"${args[@]}"}
cargo run --release --offline -p idea-bench --bin serve_bench -- ${args[@]+"${args[@]}"}
