#!/usr/bin/env bash
# Gate for the benchmark package: format, lints, unit tests, and a smoke run
# of all four workloads (timed and traced) with the same checks as a full run.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline --quiet -- --smoke --traced
