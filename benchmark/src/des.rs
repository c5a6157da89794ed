//! `des_spmv_262k` and `des_a2a_4k`: the full-DES weak-scaling skeleton
//! (`deep_bench::des_scaling::run`) at the two scales `f09` quotes.
//!
//! Both bypass psmpi entirely — messages are booked through
//! `Network::schedule_batch` — so they isolate fabric construction and
//! batch booking; kernel events are about 1 % of their wall.

use deep_bench::des_scaling::{self, DesScalingConfig, DesScalingResult};
use deep_psmpi::NetModel;
use deep_simkit::Simulation;

use crate::clock::{now_ns, secs_since};
use crate::driver::{Outcome, Params, Workload};
use crate::golden::{check_golden, golden_key, Golden};
use crate::stats::median;
use crate::trace;

/// Either workload; `des_a2a_4k` is the complex class (the SpMV
/// pattern plus a pairwise all-to-all), anything else the SpMV class.
pub struct Des {
    cfg: DesScalingConfig,
    traced: bool,
    golden_key: String,
    /// The first repetition's result; every later one must equal it.
    first: Option<DesScalingResult>,
}

impl Workload for Des {
    const SINGLE_THREADED: bool = true;

    fn setup(p: &Params) -> Des {
        let complex = p.workload == "des_a2a_4k";
        let (ranks, iters) = match (complex, p.smoke) {
            (false, false) => (262_144, 4),
            (true, false) => (4_096, 2),
            (false, true) => (4_096, 2),
            (true, true) => (256, 2),
        };
        let cfg = DesScalingConfig {
            ranks,
            iters,
            complex,
            seed: p.seed,
        };
        // Warm-up: the same fabric and rank count, one iteration — it
        // pages in the code and sizes the allocator's arenas without
        // costing a full repetition per set-up round.
        std::hint::black_box(des_scaling::run(DesScalingConfig { iters: 1, ..cfg }));
        Des {
            cfg,
            traced: p.trace,
            golden_key: golden_key(&p.workload, p.smoke),
            first: None,
        }
    }

    fn rep(&mut self, out: &mut Outcome) {
        let r = {
            let mut s = trace::span("bench", "des_scaling::run");
            let r = des_scaling::run(std::hint::black_box(self.cfg));
            s.count(r.messages);
            r
        };
        let first = *self.first.get_or_insert(r);
        out.check((r != first).then(|| {
            format!(
                "{}: repetition differs from the first: {r:?} vs {first:?}",
                self.golden_key
            )
        }));
    }

    fn finish(self, reps: &[f64], out: &mut Outcome) {
        let Some(r) = self.first else { return };
        let measured = Golden {
            digest: format!("{:#018x}", r.digest),
            messages: r.messages,
            kernel_events: r.kernel_events,
            sim_iter_s: r.iter_s,
        };
        out.check(check_golden(&self.golden_key, &measured));

        let model =
            des_scaling::analytic_iter(&NetModel::ib_fdr(), u64::from(r.ranks), self.cfg.complex)
                .as_secs_f64();
        out.layer.insert("des.msgs", r.messages as f64);
        out.layer
            .insert("des.kernel_events", r.kernel_events as f64);
        out.layer
            .insert("des.ns_per_msg", median(reps) * 1e9 / r.messages as f64);
        out.layer.insert("des.sim_iter_ms", r.iter_s * 1e3);
        out.layer.insert(
            "des.model_err_pct",
            100.0 * (r.iter_s - model).abs() / model,
        );
        if !self.traced {
            return;
        }
        // For the share estimates of the traced pass: what building
        // this workload's fabric costs, and which batch probe replays
        // its message mix.
        let build: Vec<f64> = (0..3)
            .map(|_| {
                let sim = Simulation::new(self.cfg.seed);
                let t = now_ns();
                let _s = trace::span("fabric", "IbFabric::new");
                std::hint::black_box(deep_fabric::IbFabric::new(&sim.handle(), r.ranks));
                secs_since(t) * 1e3
            })
            .collect();
        out.layer.insert("des.fabric_build_ms", median(&build));
        out.layer
            .insert("des.complex", f64::from(u8::from(self.cfg.complex)));
    }
}
