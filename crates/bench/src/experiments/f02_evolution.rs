//! F02 — slides 2 & 4: supercomputer performance evolution.
//!
//! Meuer's law (×1000/decade) against Moore's law (×~100/decade), fitted
//! on the historical Top500-#1 series the slide plots.

use deep_core::{Cell, Table};
use deep_hw::generations::{
    fitted_factor_per_decade, juelich_lineage, meuer_factor, moore_factor, top500_number_one,
};

pub fn tables() -> Vec<Table> {
    let series = top500_number_one();
    let mut t = Table::new(
        "F02",
        "performance evolution: Top500 #1 vs the two scaling laws",
        &[
            "year",
            "Top500 #1 [GF]",
            "Meuer projection [GF]",
            "Moore projection [GF]",
        ],
    );
    let (y0, v0) = series[0];
    for &(y, v) in &series {
        let dy = (y - y0) as f64;
        t.row([
            y.into(),
            Cell::f(v),
            Cell::f(v0 * meuer_factor(dy)),
            Cell::f(v0 * moore_factor(dy)),
        ]);
    }

    let fit = fitted_factor_per_decade(&series);
    t.note(&format!(
        "fitted growth of the historical series: x{fit:.0} per decade"
    ));
    t.note(&format!(
        "Meuer's law says x1000; Moore's law alone gives x{:.0}.",
        moore_factor(10.0)
    ));
    t.note(&format!(
        "the gap (x{:.0}) is what parallelism growth contributed — the paper's\n\
         motivation for ever more (and more heterogeneous) parallelism.\n",
        fit / moore_factor(10.0)
    ));

    let mut t2 = Table::new(
        "F02b",
        "Jülich lineage (slide 18 timeline)",
        &["system", "year", "peak [GF]", "power [kW]", "GF/W"],
    );
    for g in juelich_lineage() {
        t2.row([
            g.name.into(),
            g.year.into(),
            Cell::f(g.peak_gflops),
            Cell::f(g.power_kw),
            Cell::f(g.peak_gflops / (g.power_kw * 1000.0)),
        ]);
    }
    vec![t, t2]
}
