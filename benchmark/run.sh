#!/usr/bin/env bash
# Build the benchmark offline and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one measured run; the last line of stdout is the result JSON
#       (this is the command BENCHMARK.json names)
#   benchmark/run.sh run [--seed N] [--workload NAME] [--quick]
#   benchmark/run.sh run --selfcheck | --spread N
#       the suite: runs the line above per workload, validates every
#       result against the names and units in BENCHMARK.json
#
# A traced run (--trace 1) is built with the `count-alloc` feature so the
# alloc.* layer metrics are real; every other run keeps the system
# allocator. Cargo caches both builds side by side.
#
# The target directory is CARGO_TARGET_DIR if set, else benchmark/target.
# To reuse a warm workspace build of the dependencies:
#   CARGO_TARGET_DIR=target benchmark/run.sh ...   (relative to where you run it)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

features=()
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        features=(--features count-alloc)
    fi
    prev="$arg"
done

# Workloads are defined single-threaded (README.md); the binary pins this
# too, the export only makes it visible in `ps` and to the suite's
# machine descriptor.
export JC_THREADS=1

exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" ${features[@]+"${features[@]}"} -- "$@"
