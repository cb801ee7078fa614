#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. Arguments are
# passed through; see README.md. Scratch data and traces go to out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
