#!/usr/bin/env bash
# The one command: build the product binary and the benchmark from
# source, then run it. From the root of a checkout:
#
#   bash benchmark/run.sh                      # all six workloads, every end-to-end metric
#   bash benchmark/run.sh --workload serve_cold --seed 7 --seconds 6 --trace 0
#   bash benchmark/run.sh --workload serve_cold --trace 1    # the traced per-layer run
#   bash benchmark/run.sh --smoke | --selfcheck
#
# Both workspaces build into one target directory ($CARGO_TARGET_DIR,
# else ./target), so the repository's own Cargo.toml and Cargo.lock are
# never touched. Build output goes to stderr; stdout is the report, with
# the result object as its last line.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

cargo build --release --offline --quiet --target-dir "$target" -p stp-bench --bin stp >&2
cargo build --release --offline --quiet --target-dir "$target" \
    --manifest-path benchmark/Cargo.toml >&2

binary=stp-benchmark
prev=
for arg in "$@"; do
    if [ "$prev" = --trace ] && [ "$arg" = 1 ]; then
        binary=stp-benchmark-trace
    fi
    prev="$arg"
done

BENCH_STP_BIN="$target/release/stp" exec "$target/release/$binary" "$@"
