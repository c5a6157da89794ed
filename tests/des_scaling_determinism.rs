//! Determinism guards for the partitioned event loop and the full-DES
//! weak-scaling skeleton built on it.
//!
//! 1. A property test: spawning the same workload across any number of
//!    event-loop partitions (1–16) must emit the *identical* trace
//!    stream as the single-loop kernel — partitioning is a storage
//!    layout for the far-horizon timer queue, never a semantic choice.
//! 2. A golden digest for the headline 262,144-rank SpMV run: the
//!    summary digest (per-iteration end instants + message count) is
//!    pinned, and the CI determinism matrix runs this same test under
//!    `RAYON_NUM_THREADS=1` and `=4`, so the value is asserted
//!    thread-invariant as well as stable across kernel changes.

use deep_bench::des_scaling::{self, DesScalingConfig};
use deep_simkit::{SimDuration, Simulation, TraceEvent};
use proptest::prelude::*;

/// FNV-1a over every field of every event, in stream order (the same
/// digest `trace_equivalence` pins its golden with).
fn trace_digest(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in events {
        eat(&e.at.as_nanos().to_le_bytes());
        eat(e.component.as_bytes());
        eat(&[0xff]);
        eat(e.kind.as_bytes());
        eat(&[0xff]);
        eat(e.payload.as_bytes());
        eat(&[0xfe]);
    }
    h
}

/// A rank-style workload whose schedule mixes the timer wheel (sub-µs
/// sleeps) with the far-horizon heap (multi-µs sleeps) and spawns a
/// child mid-life (children inherit their spawner's partition). The
/// behaviour of rank `r` depends only on `r` — never on the partition
/// count — so the trace stream must not either.
fn run_partitioned(ranks: usize, partitions: u32) -> Vec<TraceEvent> {
    let mut sim = Simulation::new(42);
    sim.enable_tracing();
    let ctx = sim.handle();
    for r in 0..ranks {
        let ctx2 = ctx.clone();
        let fut = async move {
            for step in 0..4u64 {
                // Alternate near (wheel) and far (heap) horizons, with
                // per-rank skew so ranks interleave across partitions.
                let ns = if (r as u64 + step).is_multiple_of(2) {
                    100 + 37 * r as u64
                } else {
                    5_000 + 1_111 * r as u64
                };
                ctx2.sleep(SimDuration::nanos(ns)).await;
                ctx2.emit("rank", "step", || format!("r={r} step={step}"));
                if step == 1 {
                    let ctx3 = ctx2.clone();
                    // Un-pinned on purpose: inheriting the spawner's
                    // partition is the behaviour under test.
                    ctx2.spawn_fmt(format_args!("child-{r}"), async move {
                        ctx3.sleep(SimDuration::nanos(900 + r as u64)).await;
                        ctx3.emit("rank", "child", || format!("r={r}"));
                    });
                }
            }
        };
        ctx.spawn_in_fmt(r as u32 % partitions, format_args!("rank-{r}"), fut);
    }
    sim.run().assert_completed();
    sim.take_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioned and single-loop kernels emit identical trace digests
    /// for any partition count in 1..=16 and any rank count.
    #[test]
    fn partitioned_kernel_matches_single_loop_trace(
        partitions in 1u32..=16u32,
        ranks in 1usize..=40usize,
    ) {
        let single = run_partitioned(ranks, 1);
        let parted = run_partitioned(ranks, partitions);
        prop_assert_eq!(
            trace_digest(&single),
            trace_digest(&parted),
            "trace diverged at ranks={} partitions={}",
            ranks,
            partitions
        );
    }
}

/// Summary digest of the 262,144-rank SpMV skeleton (1 iteration,
/// seed 1), captured from the kernel this PR introduced. The CI
/// determinism matrix executes this test at `RAYON_NUM_THREADS` 1 and
/// 4; the digest is a pure function of the configuration, so both runs
/// must land exactly here.
const DES_262K_GOLDEN: u64 = 0x8d5b_00dc_e5ef_d607;

#[test]
fn des_262k_summary_digest_matches_golden_at_any_width() {
    let r = des_scaling::run(DesScalingConfig {
        ranks: 1 << 18,
        iters: 1,
        complex: false,
        seed: 1,
    });
    assert_eq!(r.segments, 14_564);
    assert_eq!(
        r.digest, DES_262K_GOLDEN,
        "262k SpMV summary digest moved: {:#018x}",
        r.digest
    );
}
