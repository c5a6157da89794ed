//! Experiment registry: every figure-regeneration experiment as a
//! library function rendering into a caller-owned buffer.
//!
//! Rendering into a `String` (instead of straight to stdout) is what
//! lets the `run_experiments` driver execute many experiments
//! concurrently without interleaving their output — each run owns its
//! buffer, and the driver prints buffers in registry order.
//!
//! [`ALL`] is the single source of truth for "every experiment": the
//! driver, the daemon and the benchmark all iterate it.

pub mod a30_scheduler_ablation;
pub mod a31_bi_selection;
pub mod a32_eager_threshold;
pub mod a33_allreduce_algorithms;
pub mod er01_checkpoint_levels;
pub mod er02_io_patterns;
pub mod er03_fault_sweep;
pub mod f02_evolution;
pub mod f03_exascale;
pub mod f03b_resilience;
pub mod f05_rationale;
pub mod f06_accel_cluster;
pub mod f08_direct_fabric;
pub mod f09_scalability;
pub mod f09b_fft;
pub mod f10_cluster_booster;
pub mod f14_architecture;
pub mod f15_energy;
pub mod f16_extoll;
pub mod f18_positioning;
pub mod f21_spawn;
pub mod f22_resmgr;
pub mod f23_cholesky;
pub mod f23b_dcholesky;
pub mod f25_offload;
pub mod f29_global_mpi;

/// One registered experiment.
pub struct Experiment {
    /// Module name (e.g. `"er03_fault_sweep"`).
    pub name: &'static str,
    /// Render the experiment's full stdout into `out`.
    pub run: fn(&mut String),
    /// Static relative cost (≈ milliseconds of 1-thread wall on the
    /// reference host, minimum 1 — see the DESIGN.md §12 profile
    /// table). The suite driver starts experiments in descending weight
    /// (LPT order) so the heavy ones are in flight from t=0 instead of
    /// becoming the tail behind two dozen sub-millisecond table
    /// renders; output stays in registry order regardless. An estimate,
    /// not a measurement — only the *ordering* matters, and only
    /// coarsely.
    pub weight: u32,
}

/// Every experiment, in registry (= alphabetical = docs) order.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "a30_scheduler_ablation",
        run: a30_scheduler_ablation::run,
        weight: 15,
    },
    Experiment {
        name: "a31_bi_selection",
        run: a31_bi_selection::run,
        weight: 7,
    },
    Experiment {
        name: "a32_eager_threshold",
        run: a32_eager_threshold::run,
        weight: 18,
    },
    Experiment {
        name: "a33_allreduce_algorithms",
        run: a33_allreduce_algorithms::run,
        // Measures ≈ 20 since its payloads became cost-only. Held at
        // 100 because the benchmark harness takes `weight < 100` as
        // "light" — its set-up warm-up and smoke set — and moving a33
        // in there would change what `setup_s` measures; a benchmark
        // PR re-baselines that, then this becomes 20.
        weight: 100,
    },
    Experiment {
        name: "er01_checkpoint_levels",
        run: er01_checkpoint_levels::run,
        weight: 2,
    },
    Experiment {
        name: "er02_io_patterns",
        run: er02_io_patterns::run,
        weight: 2,
    },
    Experiment {
        name: "er03_fault_sweep",
        run: er03_fault_sweep::run,
        weight: 12,
    },
    Experiment {
        name: "f02_evolution",
        run: f02_evolution::run,
        weight: 1,
    },
    Experiment {
        name: "f03_exascale",
        run: f03_exascale::run,
        weight: 1,
    },
    Experiment {
        name: "f03b_resilience",
        run: f03b_resilience::run,
        weight: 140,
    },
    Experiment {
        name: "f05_rationale",
        run: f05_rationale::run,
        weight: 1,
    },
    Experiment {
        name: "f06_accel_cluster",
        run: f06_accel_cluster::run,
        weight: 1,
    },
    Experiment {
        name: "f08_direct_fabric",
        run: f08_direct_fabric::run,
        weight: 1,
    },
    Experiment {
        name: "f09_scalability",
        run: f09_scalability::run,
        weight: 1900,
    },
    Experiment {
        name: "f09b_fft",
        run: f09b_fft::run,
        weight: 2250,
    },
    Experiment {
        name: "f10_cluster_booster",
        run: f10_cluster_booster::run,
        weight: 66,
    },
    Experiment {
        name: "f14_architecture",
        run: f14_architecture::run,
        weight: 1,
    },
    Experiment {
        name: "f15_energy",
        run: f15_energy::run,
        weight: 1,
    },
    Experiment {
        name: "f16_extoll",
        run: f16_extoll::run,
        weight: 1,
    },
    Experiment {
        name: "f18_positioning",
        run: f18_positioning::run,
        weight: 1,
    },
    Experiment {
        name: "f21_spawn",
        run: f21_spawn::run,
        weight: 6,
    },
    Experiment {
        name: "f22_resmgr",
        run: f22_resmgr::run,
        weight: 10,
    },
    Experiment {
        name: "f23_cholesky",
        run: f23_cholesky::run,
        weight: 70,
    },
    Experiment {
        name: "f23b_dcholesky",
        run: f23b_dcholesky::run,
        weight: 350,
    },
    Experiment {
        name: "f25_offload",
        run: f25_offload::run,
        weight: 350,
    },
    Experiment {
        name: "f29_global_mpi",
        run: f29_global_mpi::run,
        weight: 2,
    },
];

/// Look up an experiment by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

/// Run one experiment to a fresh buffer; `None` for unknown names.
pub fn run_to_string(name: &str) -> Option<String> {
    let e = find(name)?;
    let mut out = String::new();
    (e.run)(&mut out);
    Some(out)
}

/// The message of a caught panic (`catch_unwind`'s payload), for the
/// drivers that turn an experiment's panic into a reported failure.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in ALL.windows(2) {
            assert!(w[0].name < w[1].name, "{} !< {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn weights_are_positive_and_heavy_tail_is_marked() {
        for e in ALL {
            assert!(e.weight >= 1, "{} needs weight >= 1", e.name);
        }
        // The known suite tail must outrank every sub-ms experiment, or
        // LPT ordering degenerates back to alphabetical.
        for heavy in ["f09_scalability", "f09b_fft"] {
            assert!(find(heavy).unwrap().weight >= 1000, "{heavy} is the tail");
        }
        // The benchmark's warm-up set is `weight < 100`; a33 stays out.
        assert!(find("a33_allreduce_algorithms").unwrap().weight >= 100);
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_to_string("no_such_experiment").is_none());
    }

    /// Smoke: a cheap experiment renders a table into its buffer.
    #[test]
    fn f02_renders_its_table() {
        let out = run_to_string("f02_evolution").unwrap();
        assert!(out.contains("### F02"), "missing table header:\n{out}");
    }
}
