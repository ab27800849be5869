#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh                      every workload, both passes, seed 42
#   benchmark/run.sh --seed 7             the same on another seed
#   benchmark/run.sh --workload city-wide --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh --compare A.json B.json
#
# Build output, span files and results.json go under CARGO_TARGET_DIR when
# it is set, else under <repo>/target/benchmark — both ignored by git.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
case "${CARGO_TARGET_DIR:-}" in
    "") target="$(dirname "$here")/target/benchmark" ;;
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/tangram-benchmark" --out "$target/out" "$@"
