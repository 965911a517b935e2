#!/usr/bin/env bash
# Build the benchmark and run one of its subcommands:
#
#   benchmark/run.sh run   [--workload W] [--seed N] [--seconds S]   timed run, end-to-end metrics
#   benchmark/run.sh trace [--workload W] [--seed N] [--seconds S]   traced run, per-layer table
#   benchmark/run.sh agree                                           two sets of ten runs compared
#   benchmark/run.sh check-names                                     names vs BENCHMARK.json
#   benchmark/run.sh test                                            the crate's unit tests
#
# Everything a run writes (WAL data, trace files) goes under
# benchmark/out/, which benchmark/.gitignore ignores; TMPDIR points
# there too, so nothing lands outside the checkout. The WAL data is
# removed when the run ends, whatever way it ends.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
mkdir -p "$here/out/tmp"
export TMPDIR="$here/out/tmp"
cleanup() { rm -rf "$here/out/tmp" "$here"/out/*-[0-9]*; }
trap cleanup EXIT

cmd="${1:-run}"
[ $# -gt 0 ] && shift
if [ "$cmd" = test ]; then
  cargo test --release --offline --manifest-path "$manifest" "$@"
  exit
fi
cargo build --release --offline --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- "$cmd" "$@"
