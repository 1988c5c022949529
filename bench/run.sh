#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh                      build, then `campbench run --all --seed 42`
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                     the pipeline's form: one result line
#   bench/run.sh agree | ledger W | run W --quick
#
# Builds the real server from the repo's own workspace (so its release
# profile applies) and the benchmark from its own package, both into
# $CARGO_TARGET_DIR, then runs the benchmark pinned to the last core; the
# benchmark pins the server to core 0.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
# Cargo's progress goes to stderr; stdout carries only the benchmark's.
cargo build --release --offline --quiet -p camp-kvs --bin camp-kvsd
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml

campbench="$CARGO_TARGET_DIR/release/campbench"
if [ "$#" -eq 0 ]; then
    set -- run --all --seed 42
fi
cores="$(nproc)"
if [ "$cores" -ge 2 ] && taskset -c "$((cores - 1))" true 2>/dev/null; then
    exec taskset -c "$((cores - 1))" "$campbench" "$@"
fi
# One core, or no taskset: unpinned, and the report says `pinned: false`.
exec "$campbench" "$@"
