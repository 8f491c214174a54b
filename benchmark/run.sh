#!/usr/bin/env bash
# Builds bench_e2e from source and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its result object
#   benchmark/run.sh [--seed N] [--quick] [--traced] [--workload W] [--out FILE]
#       every workload, each in a process of its own; writes one result file
#   benchmark/run.sh --sets 2 [--seed N] [--quick]
#       the whole benchmark twice, back to back, then `compare` on the two
#       results: the agreement check (exit 1 when a set is worse than the other)
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout carries only the benchmark's own lines.
cargo build --release --offline --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
case "$target" in
    /*) bin="$target/release/bench_e2e" ;;
    *) bin="$PWD/$target/release/bench_e2e" ;;
esac

sets=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --sets) sets="$2"; shift 2 ;;
        *) args+=("$1"); shift ;;
    esac
done

if [ "$sets" -eq 0 ]; then
    exec "$bin" "${args[@]}"
fi
if [ "$sets" -ne 2 ]; then
    echo "run.sh: --sets takes 2 (two sets are what compare compares)" >&2
    exit 2
fi
mkdir -p "$here/out"
"$bin" "${args[@]}" --out "$here/out/set-1.json"
"$bin" "${args[@]}" --out "$here/out/set-2.json"
exec "$bin" compare "$here/out/set-1.json" "$here/out/set-2.json"
