#!/usr/bin/env bash
# Builds `vantage` and `vbench` from this checkout, then runs vbench with
# the given arguments, e.g.
#
#   bash vbench/run.sh --workload clustered-knn --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target).
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --locked --quiet -p vantage-cli >&2
cargo build --release --locked --quiet --manifest-path vbench/Cargo.toml >&2
exec "$target/release/vbench" --vantage "$target/release/vantage" "$@"
