#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on:
#   bash e2ebench/run.sh --workload serve-churn --seed 1 --seconds 15 --trace 0
# Run from the repository root, so cargo picks up .cargo/config.toml.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path e2ebench/Cargo.toml --bin e2ebench
exec "$target/release/e2ebench" "$@"
