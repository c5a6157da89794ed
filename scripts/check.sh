#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (deny warnings; the
# determinism and unsafe policy of DESIGN.md §13 lives in the
# clippy.toml files and the [lints] tables), tests and the benchmark's
# reference checks, then a lines-of-Rust table per crate. Run from the
# workspace root before sending a PR. Each step is timed so slow
# regressions in the gate itself are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    local label="$1"
    shift
    echo "==> $label"
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    echo "    [$label: $((end - start))s]"
}

step "cargo fmt --check" cargo fmt --check

step "cargo clippy (deny warnings)" \
    cargo clippy --workspace --all-targets -- -D warnings

step "cargo test (workspace)" cargo test -q --workspace

# The benchmark checks every output against benchmark/golden.json and
# exits non-zero on a miss; message and poll counts are equality pins,
# so a change that moves one fails here and not in the pipeline. All
# five workloads at toy size, then one full-size repetition of
# mpi_rank_1k, whose 12 455 027-poll pin every per-message change is
# judged by (a few seconds once the harness is built; it shares
# target/). A passing run shows only its result line.
bench() {
    local out
    if out=$(bash benchmark/run.sh "$@"); then
        tail -n 1 <<<"$out"
    else
        echo "$out"
        return 1
    fi
}
step "benchmark --smoke" bench --smoke
step "benchmark mpi_rank_1k (full size)" bench --workload mpi_rank_1k --seconds 1

# Lines of Rust per crate (the root package is src/ + tests/ +
# examples/), so a PR's growth or shrinkage shows up in its own gate
# output.
loc() {
    find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
}
echo "==> lines of Rust by crate"
total=0
for dir in crates/*/ vendor/*/; do
    dir=${dir%/}
    n=$(loc "$dir")
    printf '    %-18s %6d\n' "$dir" "$n"
    total=$((total + n))
done
n=$(loc src tests examples)
printf '    %-18s %6d\n' "(root package)" "$n"
printf '    %-18s %6d\n' "total" "$((total + n))"

echo "All checks passed."
