//! F10 — slide 10: the Cluster-Booster Architecture.
//!
//! The coupled multi-physics proxy (complex main() + highly scalable
//! kernel) on three machines: a homogeneous cluster, a conventional
//! PCIe-accelerated cluster and the DEEP cluster-booster, sized for
//! comparable accelerator silicon.

use deep_core::{
    run_on_accelerated, run_on_deep, run_on_pure_cluster, Cell, CoupledParams, DeepConfig, Table,
};

pub fn tables() -> Vec<Table> {
    let p = CoupledParams::default();
    let reports = [
        run_on_pure_cluster(1, 16, p),
        run_on_accelerated(1, 16, p),
        run_on_deep(1, DeepConfig::medium(), p),
    ];

    let mut t = Table::new(
        "F10",
        "coupled proxy across architectures (4 steps, 10 internal iterations)",
        &[
            "architecture",
            "time-to-solution",
            "energy [kJ]",
            "CPU<->acc msgs/unit",
            "avg CPU<->acc msg",
        ],
    );
    for r in &reports {
        let per_unit = if r.acc_units > 0 {
            Cell::f(r.acc_messages as f64 / r.acc_units as f64)
        } else {
            "-".into()
        };
        let avg = r
            .acc_bytes
            .checked_div(r.acc_messages)
            .map_or_else(|| "-".into(), Cell::bytes);
        t.row([
            (&r.arch).into(),
            Cell::secs(r.elapsed),
            Cell::f(r.energy_joules / 1e3),
            per_unit,
            avg,
        ]);
    }

    let pure = &reports[0];
    let accel = &reports[1];
    let deep = &reports[2];
    t.note(&format!(
        "cluster-booster vs accelerated cluster: {:.2}x faster, {:.2}x less\n\
         energy, {:.1}x fewer and {:.1}x larger CPU<->accelerator messages;\n\
         vs pure cluster: {:.2}x faster. The booster executes the whole\n\
         parallel kernel autonomously (slide 10: offloaded kernels relieve\n\
         the CPU-accelerator communication pressure).",
        accel.elapsed.as_secs_f64() / deep.elapsed.as_secs_f64(),
        accel.energy_joules / deep.energy_joules,
        (accel.acc_messages as f64 / accel.acc_units as f64)
            / (deep.acc_messages as f64 / deep.acc_units as f64),
        (deep.acc_bytes as f64 / deep.acc_messages as f64)
            / (accel.acc_bytes as f64 / accel.acc_messages as f64),
        pure.elapsed.as_secs_f64() / deep.elapsed.as_secs_f64(),
    ));
    vec![t]
}
