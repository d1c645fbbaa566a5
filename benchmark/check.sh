#!/usr/bin/env bash
# Build, lint, unit-test and smoke-run the benchmark package. A CI job can
# call this as is; it touches nothing outside benchmark/ (and the cargo
# target directory).
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
cargo test --release --offline -q
# Every workload, plain and traced, three passes each; the metric names and
# units are checked against ../BENCHMARK.json.
cargo run --release --offline -- --smoke
