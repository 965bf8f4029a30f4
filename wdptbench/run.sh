#!/usr/bin/env bash
# Builds the release `wdpt-serve` binary and the `wdptbench` binary from
# source, then runs `wdptbench` with the given arguments:
#
#   bash wdptbench/run.sh --workload repeat --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: .bench_build); generated inputs and span dumps go to
# $CARGO_TARGET_DIR/wdptbench.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p wdpt-serve --bin wdpt-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/wdptbench" \
    --server "$CARGO_TARGET_DIR/release/wdpt-serve" \
    --work-dir "$CARGO_TARGET_DIR/wdptbench" "$@"
