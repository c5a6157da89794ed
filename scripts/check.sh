#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (deny warnings; the
# determinism and unsafe policy of DESIGN.md §13 lives in the
# clippy.toml files and the [lints] tables), tests, rustdoc links, the
# benchmark's reference checks and every experiment's committed output,
# then a lines-of-Rust table per crate. Run from the workspace root
# before sending a PR. Each step is timed so slow regressions in the
# gate itself are visible.
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

step "cargo test (workspace)" cargo test -q

# F09b prints a cost-only CG of 60 iterations; this proves the real
# 1024² solve runs exactly 60 (too slow for the debug Tier-1 run).
step "cg_pins in release (F09b's iteration count)" \
    cargo test -q --release -p deep-apps --test cg_pins

# Rustdoc with warnings denied: deleting or privatising a documented
# item cannot leave a dangling intra-doc link behind.
step "cargo doc (deny warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

# The benchmark checks every output against benchmark/golden.json and
# exits non-zero on a miss; message and poll counts are equality pins,
# so a change that moves one fails here and not in the pipeline. All
# five workloads at toy size, then one full-size repetition each of
# mpi_rank_1k, whose 12 455 027-poll pin every per-message change is
# judged by (`cargo test` pins only its 54 846-poll `@smoke` row, in
# tests/process_table_bound.rs); des_a2a_4k, the only full-size pin of the
# batched irregular (all-to-all) path; and des_spmv_262k, whose golden
# row (digest, 20 971 520 messages, 364 109 kernel events) is the one a
# fabric layout change must not move — `cargo test` pins the two
# `des_*@smoke` rows and a one-iteration 262k digest, not this row (a
# few seconds each once the harness is built; it shares target/). A
# passing run shows only its result line.
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
step "benchmark des_a2a_4k (full size)" bench --workload des_a2a_4k --seconds 1
step "benchmark des_spmv_262k (full size)" bench --workload des_spmv_262k --seconds 1

# Every registry experiment against its committed table: `cargo test`
# (tests/experiment_shapes.rs) compares all but f09 and f23b, and the
# benchmark's --smoke those of weight < 100.
experiment_outputs() {
    local target="${CARGO_TARGET_DIR:-target}"
    cargo build -q --release -p deep-bench --bin run_experiments
    local run="$target/release/run_experiments" out="$target/experiment_output.md"
    local id doc
    for id in $("$run" --list); do
        doc="docs/experiments/$id.md"
        "$run" --only "$id" >"$out" 2>/dev/null
        if [ "$id" = er03_fault_sweep ]; then
            # Its document may carry a `regenerate:` trailer after the
            # output (benchmark/src/suite.rs reads it the same way).
            test -s "$out"
            head -c "$(wc -c <"$out")" "$doc" | cmp "$out" -
        else
            cmp "$out" "$doc"
        fi
    done
    rm -f "$out"
}
step "26 experiment outputs vs docs/experiments" experiment_outputs

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
