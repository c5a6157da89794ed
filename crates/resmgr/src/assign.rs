//! Host-side reuse of the dynamic-assignment policy.
//!
//! The simulated [`ResMgr`](crate::ResMgr) grants booster nodes to jobs
//! *dynamically*: a job claims only what its current phase needs, and
//! spare capacity flows to whoever can use it, FCFS. `deep-serve` eats
//! that dogfood on the host: its scheduler apportions the host's
//! threads across concurrently running jobs with the same
//! policy. This module is the policy distilled to a pure function —
//! no simulator, no clocks, no allocation beyond the output vector —
//! so the daemon and the DES provably share one assignment rule and
//! the unit tests can pin its behaviour exactly.
//!
//! The rule, in `ResMgr` terms, for a pool of `total` nodes and jobs
//! with demands `d_i` (queue order = index order):
//!
//! 1. every job with non-zero demand is granted at least one node
//!    while supply lasts, FCFS — nobody starves behind a wide job;
//! 2. remaining supply is dealt one node at a time, round-robin in
//!    index order, to jobs still below their demand — the "claim only
//!    for the phases that need it" half of the dynamic policy;
//! 3. nothing is granted beyond a job's demand — the freed surplus is
//!    what makes dynamic beat static in F22.

// deep-serve's scheduler calls this on its request path, where a panic
// would abort the daemon (DESIGN.md §13).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

/// Apportion `total` pool slots across jobs by demand, dynamically.
///
/// Returns one grant per demand, in input order, with
/// `grants[i] <= demands[i]` and `sum(grants) <= total` always, and
/// `sum(grants) == min(total, sum(demands))` (work-conserving). The
/// result is a pure function of the inputs — deterministic across
/// hosts, runs, and thread counts.
pub fn dynamic_shares(total: u32, demands: &[u32]) -> Vec<u32> {
    let mut grants = vec![0u32; demands.len()];
    let mut left = total;
    // Pass 1: one slot each, FCFS, so every admitted job makes progress.
    for (g, &d) in grants.iter_mut().zip(demands) {
        if left == 0 {
            return grants;
        }
        if d > 0 {
            *g = 1;
            left -= 1;
        }
    }
    // Pass 2: round-robin the surplus to jobs still under their demand.
    let mut unsatisfied = true;
    while left > 0 && unsatisfied {
        unsatisfied = false;
        for (g, &d) in grants.iter_mut().zip(demands) {
            if left == 0 {
                break;
            }
            if *g < d {
                *g += 1;
                left -= 1;
                unsatisfied = true;
            }
        }
    }
    grants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_takes_what_it_needs_and_no_more() {
        assert_eq!(dynamic_shares(8, &[3]), vec![3]);
        assert_eq!(dynamic_shares(2, &[3]), vec![2]);
    }

    #[test]
    fn surplus_splits_evenly_then_round_robin_by_index() {
        assert_eq!(dynamic_shares(8, &[8, 8]), vec![4, 4]);
        // Odd slot goes to the earlier (FCFS) job.
        assert_eq!(dynamic_shares(7, &[8, 8]), vec![4, 3]);
    }

    #[test]
    fn nobody_starves_behind_a_wide_job() {
        // The 16-wide job cannot hoard the whole pool: pass 1 hands the
        // narrow jobs one slot each first.
        assert_eq!(dynamic_shares(4, &[16, 1, 1]), vec![2, 1, 1]);
    }

    #[test]
    fn grants_never_exceed_demand() {
        assert_eq!(dynamic_shares(16, &[1, 2, 0, 3]), vec![1, 2, 0, 3]);
    }

    #[test]
    fn zero_demand_and_zero_total_edge_cases() {
        assert_eq!(dynamic_shares(0, &[5, 5]), vec![0, 0]);
        assert_eq!(dynamic_shares(4, &[]), Vec::<u32>::new());
        assert_eq!(dynamic_shares(4, &[0, 0]), vec![0, 0]);
    }

    #[test]
    fn work_conserving_invariant() {
        for total in 0..12u32 {
            for demands in [
                vec![0u32],
                vec![1, 1, 1],
                vec![5, 0, 2],
                vec![9, 9, 9, 9],
                vec![2, 7, 1, 0, 4],
            ] {
                let g = dynamic_shares(total, &demands);
                let granted: u32 = g.iter().sum();
                let demanded: u32 = demands.iter().sum();
                assert_eq!(granted, total.min(demanded), "t={total} d={demands:?}");
                assert!(g.iter().zip(&demands).all(|(a, b)| a <= b));
            }
        }
    }
}
