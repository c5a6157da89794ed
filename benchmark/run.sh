#!/usr/bin/env bash
# Build the benchmark harness and run it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#
# Without --workload every workload runs, one after the other, from one
# process. The last line of standard output is the result object that
# BENCHMARK.json's contract defines; the exit code is non-zero when an
# output missed its reference.
#
# The harness is built --offline with the profile in benchmark/Cargo.toml
# (a copy of the root [profile.release], so it times the same code the
# repository ships) into CARGO_TARGET_DIR when that is set, otherwise
# into the repository's own target/ — sharing it with a Tier-1 build
# saves compiling every crate a second time.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
# Build output goes to stderr; stdout carries only the benchmark's lines.
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/deep-benchmark" "$@"
