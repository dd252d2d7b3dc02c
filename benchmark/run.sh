#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark (and with it the repo)
# from source, then hands every argument to it:
#
#   benchmark/run.sh                          all four workloads, untraced
#   benchmark/run.sh --trace                  ... and traced: per-layer metrics, out/trace-*.json
#   benchmark/run.sh --smoke                  three units per workload, seconds not minutes
#   benchmark/run.sh --seed 7 --runs 5 --out out/a.json
#   benchmark/run.sh --check out/a.json out/b.json
#   benchmark/run.sh --workload trip_fm --seed 3 --seconds 20 --trace 0    one run, one JSON line last
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo puts the executable under CARGO_TARGET_DIR when the caller sets one
# (relative to the caller's directory), else under the benchmark's own target/.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/sonic-benchmark" "$@"
