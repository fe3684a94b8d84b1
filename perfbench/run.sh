#!/usr/bin/env bash
# Builds the benchmark and crowdtz-serve from source (release profile),
# then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the repository root. CARGO_TARGET_DIR, when set, is where
# the build goes; otherwise perfbench/target.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
