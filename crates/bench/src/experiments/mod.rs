//! Experiment registry: every figure-regeneration experiment as a
//! library function computing its tables once, and the registry entry
//! rendering them into a caller-owned buffer.
//!
//! Each module's `tables()` returns typed [`Table`]s (the prose printed
//! after a table rides on it as notes). The registry's `run` only
//! renders them, so the byte pin in `docs/experiments/<id>.md` and the
//! claims of `tests/experiment_shapes.rs` read one and the same run.
//!
//! Rendering into a `String` (instead of straight to stdout) is what
//! lets the `run_experiments` driver execute many experiments
//! concurrently without interleaving their output — each run owns its
//! buffer, and the driver prints buffers in registry order.
//!
//! [`ALL`] is the single source of truth for "every experiment": the
//! driver, the daemon and the benchmark all iterate it.

use deep_core::Table;

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

/// Render tables as the experiment's stdout: each table's Markdown, a
/// blank line, then its notes.
pub fn render(tables: &[Table], out: &mut String) {
    for t in tables {
        t.write_into(out);
    }
}

/// Declares each experiment module and its [`ALL`] entry, whose `run`
/// renders the module's `tables()`.
macro_rules! registry {
    ($($name:ident: $weight:expr,)*) => {
        $(pub mod $name;)*

        /// Every experiment, in registry (= alphabetical = docs) order.
        pub const ALL: &[Experiment] = &[$(Experiment {
            name: stringify!($name),
            run: |out| render(&$name::tables(), out),
            weight: $weight,
        }),*];
    };
}

registry! {
    a30_scheduler_ablation: 15,
    a31_bi_selection: 7,
    a32_eager_threshold: 18,
    // Measures ≈ 20 since its payloads became cost-only. Held at 100
    // because the benchmark harness takes `weight < 100` as "light" —
    // its set-up warm-up and smoke set — and moving a33 in there would
    // change what `setup_s` measures; a benchmark PR re-baselines that,
    // then this becomes 20 (and f09b's 35).
    a33_allreduce_algorithms: 100,
    er01_checkpoint_levels: 2,
    er02_io_patterns: 2,
    er03_fault_sweep: 12,
    f02_evolution: 1,
    f03_exascale: 1,
    f03b_resilience: 140,
    f05_rationale: 1,
    f06_accel_cluster: 1,
    f08_direct_fabric: 1,
    f09_scalability: 1900,
    // ≈ 35 since its CG became cost-only; held at 100 as a33 is.
    f09b_fft: 100,
    f10_cluster_booster: 66,
    f14_architecture: 1,
    f15_energy: 1,
    f16_extoll: 1,
    f18_positioning: 1,
    f21_spawn: 6,
    f22_resmgr: 10,
    f23_cholesky: 70,
    f23b_dcholesky: 350,
    f25_offload: 350,
    f29_global_mpi: 2,
}

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
        assert!(find("f09_scalability").unwrap().weight >= 1000);
        // The benchmark's warm-up set is `weight < 100`; a33 and f09b
        // stay out.
        for held in ["a33_allreduce_algorithms", "f09b_fft"] {
            assert!(find(held).unwrap().weight >= 100, "{held} is not light");
        }
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
