//! Distributed 2-D FFT — the archetype of the paper's *complex* class
//! (slide 9: "most applications are more complex ... complicated
//! communication patterns"): a pencil decomposition whose transpose step
//! is a full personalised all-to-all, the communication pattern that
//! stops scaling long before the halo-exchange codes do.
//!
//! The math is real: a radix-2 Cooley–Tukey transform runs on actual
//! complex data, the transpose moves actual values through the simulated
//! alltoall, and small grids are verified against a direct O(n²) DFT.

use deep_psmpi::{Comm, MpiCtx, ReduceOp, Value};

/// A complex number as a pair (re, im).
pub type Cpx = (f64, f64);

fn c_add(a: Cpx, b: Cpx) -> Cpx {
    (a.0 + b.0, a.1 + b.1)
}

fn c_sub(a: Cpx, b: Cpx) -> Cpx {
    (a.0 - b.0, a.1 - b.1)
}

fn c_mul(a: Cpx, b: Cpx) -> Cpx {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// In-place radix-2 Cooley–Tukey FFT. Length must be a power of two.
pub fn fft_inplace(data: &mut [Cpx]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "radix-2 FFT needs a power-of-two length"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = (ang.cos(), ang.sin());
        for chunk in data.chunks_mut(len) {
            let mut w = (1.0, 0.0);
            let half = len / 2;
            for k in 0..half {
                let u = chunk[k];
                let v = c_mul(chunk[k + half], w);
                chunk[k] = c_add(u, v);
                chunk[k + half] = c_sub(u, v);
                w = c_mul(w, wlen);
            }
        }
        len <<= 1;
    }
}

/// Direct O(n²) DFT, the verification reference.
pub fn dft_reference(input: &[Cpx]) -> Vec<Cpx> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = (0.0, 0.0);
            for (j, &x) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = c_add(acc, c_mul(x, (ang.cos(), ang.sin())));
            }
            acc
        })
        .collect()
}

/// Serial 2-D FFT (rows then columns) of an `n × n` grid.
pub fn fft2d_reference(grid: &[Cpx], n: usize) -> Vec<Cpx> {
    let mut out = grid.to_vec();
    // Rows.
    for r in 0..n {
        fft_inplace(&mut out[r * n..(r + 1) * n]);
    }
    // Columns.
    let mut col = vec![(0.0, 0.0); n];
    for c in 0..n {
        for r in 0..n {
            col[r] = out[r * n + c];
        }
        fft_inplace(&mut col);
        for r in 0..n {
            out[r * n + c] = col[r];
        }
    }
    out
}

/// Pack complex rows as an interleaved f64 vector for the wire.
fn pack(rows: &[Cpx]) -> Vec<f64> {
    let mut v = Vec::with_capacity(rows.len() * 2);
    for &(re, im) in rows {
        v.push(re);
        v.push(im);
    }
    v
}

fn unpack(v: &[f64]) -> Vec<Cpx> {
    v.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

/// Outcome of a distributed 2-D FFT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FftResult {
    /// Sum of output magnitudes (cross-run check).
    pub magnitude_checksum: f64,
    /// Bytes moved through the transpose per rank.
    pub transpose_bytes: u64,
}

/// Distributed pencil 2-D FFT of an `n × n` grid over `comm`.
///
/// `n` must be a power of two and divisible by the communicator size.
/// Each rank owns `n/size` contiguous rows: FFT along rows, global
/// transpose via personalised alltoall, FFT along the (now-local) other
/// dimension. The transpose IS the scalability problem — every rank
/// talks to every rank, every step.
pub async fn fft2d_distributed(
    m: &MpiCtx,
    comm: &Comm,
    grid_rows: Vec<Vec<Cpx>>, // this rank's rows, each of length n
    n: usize,
) -> (Vec<Vec<Cpx>>, FftResult) {
    let size = comm.size() as usize;
    assert!(n.is_power_of_two());
    assert_eq!(n % size, 0, "grid must divide over ranks");
    let rows_per = n / size;
    assert_eq!(grid_rows.len(), rows_per);

    // 1. Row FFTs (local).
    let mut rows = grid_rows;
    for row in &mut rows {
        assert_eq!(row.len(), n);
        fft_inplace(row);
    }

    // 2. Global transpose: block (r, c) goes to rank c, becoming its
    //    column block. Personalised all-to-all with real payloads.
    let block_bytes = (rows_per * rows_per * 16) as u64;
    let blocks: Vec<Value> = (0..size)
        .map(|dest| {
            // Sub-block: my rows, columns dest*rows_per..(dest+1)*rows_per.
            let mut sub = Vec::with_capacity(rows_per * rows_per);
            for row in &rows {
                sub.extend_from_slice(&row[dest * rows_per..(dest + 1) * rows_per]);
            }
            Value::vec(pack(&sub))
        })
        .collect();
    let received = m.alltoall(comm, blocks, block_bytes).await;

    // Reassemble: received[s] holds rank s's rows of my column block,
    // laid out row-major within the sub-block; transpose into my new rows.
    let mut new_rows: Vec<Vec<Cpx>> = vec![vec![(0.0, 0.0); n]; rows_per];
    for (s, block) in received.iter().enumerate() {
        let sub = unpack(block.as_vec());
        for (i, chunk) in sub.chunks_exact(rows_per).enumerate() {
            // chunk = sender's row i of my columns; element j belongs to
            // my local row j, global column s*rows_per + i.
            for (j, &v) in chunk.iter().enumerate() {
                new_rows[j][s * rows_per + i] = v;
            }
        }
    }

    // 3. FFT along the transposed dimension (local).
    for row in &mut new_rows {
        fft_inplace(row);
    }

    // Checksum across all ranks.
    let local_mag: f64 = new_rows
        .iter()
        .flatten()
        .map(|&(re, im)| (re * re + im * im).sqrt())
        .sum();
    let total = m
        .allreduce(comm, ReduceOp::Sum, Value::F64(local_mag), 8)
        .await
        .as_f64();
    (
        new_rows,
        FftResult {
            magnitude_checksum: total,
            transpose_bytes: block_bytes * size as u64,
        },
    )
}

/// Driver: run the distributed FFT of a deterministic test pattern over
/// an ideal wire; returns (result, elapsed virtual ns).
pub fn run_fft_ideal(seed: u64, n_ranks: u32, n: usize) -> (FftResult, u64) {
    crate::run_ideal(seed, n_ranks, "fft", move |m, comm| async move {
        let rows_per = n / comm.size() as usize;
        let first = m.rank() as usize * rows_per;
        let rows: Vec<Vec<Cpx>> = (0..rows_per)
            .map(|i| (0..n).map(|j| test_pattern(first + i, j, n)).collect())
            .collect();
        fft2d_distributed(&m, &comm, rows, n).await.1
    })
}

/// The deterministic input pattern used by driver and tests.
pub fn test_pattern(r: usize, c: usize, n: usize) -> Cpx {
    let x = (r * 31 + c * 17) % n;
    ((x as f64 / n as f64) - 0.5, ((r + c) % 3) as f64 * 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_matches_direct_dft() {
        for n in [2usize, 4, 8, 32] {
            let input: Vec<Cpx> = (0..n).map(|i| test_pattern(i, 3 * i, n.max(4))).collect();
            let mut fast = input.clone();
            fft_inplace(&mut fast);
            let slow = dft_reference(&input);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a.0 - b.0).abs() < 1e-9, "{a:?} vs {b:?}");
                assert!((a.1 - b.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![(0.0, 0.0); 16];
        data[0] = (1.0, 0.0);
        fft_inplace(&mut data);
        for &(re, im) in &data {
            assert!((re - 1.0).abs() < 1e-12 && im.abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_fft_matches_serial_2d() {
        let n = 16;
        let grid: Vec<Cpx> = (0..n * n).map(|i| test_pattern(i / n, i % n, n)).collect();
        let serial = fft2d_reference(&grid, n);
        let serial_mag: f64 = serial
            .iter()
            .map(|&(re, im)| (re * re + im * im).sqrt())
            .sum();
        for ranks in [1u32, 2, 4, 8] {
            let (res, _) = run_fft_ideal(1, ranks, n);
            assert!(
                (res.magnitude_checksum - serial_mag).abs() < 1e-6 * serial_mag,
                "ranks={ranks}: {} vs serial {}",
                res.magnitude_checksum,
                serial_mag
            );
        }
    }

    #[test]
    fn transpose_volume_scales_with_grid() {
        let (small, _) = run_fft_ideal(1, 4, 16);
        let (large, _) = run_fft_ideal(1, 4, 64);
        assert_eq!(large.transpose_bytes, small.transpose_bytes * 16);
    }

    #[test]
    fn more_ranks_more_messages_per_step() {
        // The complex class's curse: time per FFT stops improving as the
        // alltoall message count grows quadratically.
        let (_, t2) = run_fft_ideal(1, 2, 64);
        let (_, t8) = run_fft_ideal(1, 8, 64);
        // 4x the ranks gives far less than 4x the speedup.
        assert!(
            (t2 as f64) / (t8 as f64) < 3.0,
            "t2={t2} t8={t8}: alltoall already limits scaling"
        );
    }
}
