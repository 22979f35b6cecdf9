#!/bin/sh
# The repo benchmark, one command. Runs every workload (each run in its
# own process), prints every metric by name and unit, writes
# benchmark/out/result.json, and exits non-zero on a failed check.
#
#   benchmark/run.sh                 a result set: 3 workloads x 10 seeds,
#                                    then the durability check
#   benchmark/run.sh --smoke         every code path in a few seconds
#   benchmark/run.sh --selfcheck     two sets of the same build, compared
#   benchmark/run.sh --seed 12       either, on other seeds
#
# Other forms (compare, describe, one run) go through cargo directly;
# see benchmark/README.md.
set -eu
cd "$(dirname "$0")/.."
sub=run
if [ "${1:-}" = "--selfcheck" ]; then
    sub=selfcheck
    shift
fi
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$sub" "$@"
