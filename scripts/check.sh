#!/usr/bin/env bash
# Full local gate: everything CI (and the tier-1 acceptance check) runs.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline
# The query engine runs in the calling thread: it must not depend on the
# Hyracks job runtime the ingestion pipeline runs on.
echo "==> idea-query does not depend on idea-hyracks"
query_deps="$(cargo tree --offline -p idea-query -e normal)"
if grep -q 'idea-hyracks' <<<"$query_deps"; then
    echo "idea-query depends on idea-hyracks:" >&2
    echo "$query_deps" >&2
    exit 1
fi
run cargo test --offline -q
run cargo test --offline --workspace -q
# Durable-storage recovery smoke: kill-9 crash recovery + the
# differential-oracle reopen tests. Both run with fsync relaxed
# ("fsync": "never"), so they are fast enough to gate every change;
# kill-9 durability still holds because SIGKILL leaves the kernel page
# cache intact. Failing runs preserve their /tmp/idea-* scratch dirs
# for inspection (export IDEA_KEEP_TMPDIR=1 to always keep them).
run cargo test --offline -q --test crash_recovery
run cargo test --offline -q -p idea-storage --test durability
# Columnar-layout recovery smoke: sealed column pages must survive the
# lifecycle/reopen/corruption suite, and the page-slicing scan must
# stay differentially equal to the row oracle and the row-major twin.
# (crash_recovery above already runs the kill-9 oracle per layout.)
run cargo test --offline -q -p idea-storage --test columnar
run cargo test --offline -q -p idea-query --test columnar_scan
# Primary-key range access: every executor's bounded scan must equal the
# `noindex` row-path oracle and read no more rows than the range holds.
run cargo test --offline -q -p idea-query --test pk_range
# Build-side reuse: shared-cache contexts must equal always-rebuild ones.
run cargo test --offline -q -p idea-query --test build_reuse
# Work-conserving computing jobs: a trickle feed is readable long before
# a batch could fill, while a backlogged drain still runs full batches
# larger than the intake holder's capacity.
run cargo test --offline -q --test full_pipeline trickle_feed_is_readable_before_a_batch_fills
run cargo test --offline -q --test full_pipeline backlogged_batches_fill_past_holder_capacity
# Socket sources poll: STOP FEED must return promptly whether no peer
# ever connected or a connected peer sits idle.
run cargo test --offline -q -p idea-core --test feeds stop_feed_returns_promptly_on_an_idle_socket
# Serving latency: sequential tiny queries over loopback must not pay a
# Nagle/delayed-ACK stall (~40 ms each) per response.
run cargo test --offline -q -p idea-serve --test server tiny_queries_answer_without_a_nagle_stall
# Connector/spec smoke: the checked-in pipeline spec must load,
# validate, and run end to end (logfile source → UDF → dataset), and a
# SIGKILLed feed must resume from its committed connector offsets.
run cargo test --offline -q --test pipeline_spec
run cargo test --offline -q --test connector_resume
run cargo run --offline --release --example pipeline_spec
# The quickstart and the live-update demo run on the in-memory and paced
# sources end to end.
run cargo run --offline --release --example quickstart
run cargo run --offline --release --example live_reference_updates
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo fmt --check
# Public-API docs must build clean: broken intra-doc links or missing
# docs on the facade are release blockers for the serving layer.
echo "==> cargo doc (warnings as errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p idea -p idea-serve -p idea-query -p idea-core

echo "==> all checks passed"
