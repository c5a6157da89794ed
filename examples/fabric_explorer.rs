//! Interconnect microbenchmarks: probe the three fabrics of the DEEP
//! design space — EXTOLL (VELO + RMA), InfiniBand, PCIe — for latency and
//! effective bandwidth across message sizes, reproducing the slide-8
//! observation that "IB can be assumed as fast as PCIe besides latency".
//!
//! Run with: `cargo run --release --example fabric_explorer`

use deep_bench::probe_fabric;

fn main() {
    println!("fabric microbenchmarks (one-directional transfer, uncontended)\n");
    println!(
        "{:>10} | {:>12} {:>12} {:>12} | {:>9} {:>9} {:>9}",
        "size", "EXTOLL", "InfiniBand", "PCIe", "GB/s", "GB/s", "GB/s"
    );
    println!("{}", "-".repeat(92));
    let mut crossover_reported = false;
    for shift in [3u32, 6, 9, 12, 14, 16, 18, 20, 22, 24, 26] {
        let bytes = 1u64 << shift;
        let te = probe_fabric("extoll", bytes);
        let ti = probe_fabric("ib", bytes);
        // Bare DMA doorbell path (no driver stack): the "PCIe besides
        // latency" reference point of slide 8.
        let tp = probe_fabric("pcie-dma", bytes);
        let gb = |t: f64| bytes as f64 / t / 1e9;
        println!(
            "{:>10} | {:>10.2}us {:>10.2}us {:>10.2}us | {:>9.2} {:>9.2} {:>9.2}",
            if bytes < 1 << 10 {
                format!("{bytes} B")
            } else if bytes < 1 << 20 {
                format!("{} KiB", bytes >> 10)
            } else {
                format!("{} MiB", bytes >> 20)
            },
            te * 1e6,
            ti * 1e6,
            tp * 1e6,
            gb(te),
            gb(ti),
            gb(tp)
        );
        // Crossover: the network path delivers ≥90% of the PCIe path's
        // effective bandwidth at the same size.
        if !crossover_reported && bytes >= 1024 && gb(ti) > 0.9 * gb(tp) {
            crossover_reported = true;
            println!(
                "{:>10}   ^-- from here the fabric matches PCIe within 10% (slide 8)",
                ""
            );
        }
    }
    println!(
        "\nsmall messages: PCIe's DMA path wins on latency; large messages: all\n\
         three converge to their link bandwidths — which is why offloading\n\
         *coarse* kernels over the fabric costs nothing vs a local accelerator."
    );
}
