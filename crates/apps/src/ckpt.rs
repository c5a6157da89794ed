//! Checkpointable-state hooks (DEEP-ER): what each proxy application
//! would have to save for a restart, per rank, and how far it has got.
//!
//! The storage/resilience stack (`deep-io`) works in bytes-per-rank and
//! opaque progress marks; these hooks are the application side of that
//! contract. They deliberately describe the *restart state* — the data a
//! checkpoint must capture — not the transient working set.

use crate::cg::my_rows;
use crate::dcholesky::column_owner;

/// An application whose restart state can be checkpointed.
pub trait Checkpointable {
    /// Stable name for tables and traces.
    fn app_name(&self) -> &'static str;
    /// Bytes this rank must write per checkpoint.
    fn state_bytes(&self) -> u64;
    /// Monotone progress mark (sweeps done, panels factored, …) suitable
    /// for [`deep_io` commit-log] bookkeeping.
    fn progress_mark(&self) -> u64;
}

/// Restart state of one Jacobi stencil rank: its stripe of the field
/// (the `next` buffer and halos are recomputed after restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilState {
    nx: usize,
    rows: usize,
    sweeps: u32,
}

impl StencilState {
    /// State of `rank` of `size` on an `nx × ny` grid, before any sweep.
    fn of_rank(rank: u32, size: u32, nx: usize, ny: usize) -> StencilState {
        StencilState {
            nx,
            rows: my_rows(rank, size, ny).len(),
            sweeps: 0,
        }
    }

    /// Record completed sweeps (progress marks are cumulative sweeps).
    pub fn advance(&mut self, sweeps: u32) {
        self.sweeps += sweeps;
    }

    /// The largest per-rank state over all ranks of the decomposition —
    /// what a synchronised collective checkpoint must budget for.
    pub fn max_state_bytes(size: u32, nx: usize, ny: usize) -> u64 {
        (0..size)
            .map(|r| StencilState::of_rank(r, size, nx, ny).state_bytes())
            .max()
            .unwrap_or(0)
    }
}

impl Checkpointable for StencilState {
    fn app_name(&self) -> &'static str {
        "jacobi-stencil"
    }

    fn state_bytes(&self) -> u64 {
        8 * (self.rows * self.nx) as u64
    }

    fn progress_mark(&self) -> u64 {
        self.sweeps as u64
    }
}

/// Restart state of one distributed-Cholesky rank: every tile of its
/// owned block columns (factored panels and not-yet-updated trailing
/// tiles alike live in the same buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DCholeskyState {
    nt: usize,
    ts: usize,
    owned_tiles: usize,
    panels_done: usize,
}

impl DCholeskyState {
    /// State of `rank` of `p` for an `nt × nt`-tile factorisation with
    /// `ts × ts` tiles under 1-D block-cyclic column distribution.
    fn of_rank(rank: u32, p: u32, nt: usize, ts: usize) -> DCholeskyState {
        let owned_tiles = (0..nt)
            .filter(|&j| column_owner(j, p) == rank)
            .map(|j| nt - j) // lower-triangle tiles i ∈ [j, nt)
            .sum();
        DCholeskyState {
            nt,
            ts,
            owned_tiles,
            panels_done: 0,
        }
    }

    /// Record factored panels (progress marks are completed panels).
    pub fn advance(&mut self, panels: usize) {
        self.panels_done = (self.panels_done + panels).min(self.nt);
    }

    /// The largest per-rank state over all ranks.
    pub fn max_state_bytes(p: u32, nt: usize, ts: usize) -> u64 {
        (0..p)
            .map(|r| DCholeskyState::of_rank(r, p, nt, ts).state_bytes())
            .max()
            .unwrap_or(0)
    }
}

impl Checkpointable for DCholeskyState {
    fn app_name(&self) -> &'static str {
        "distributed-cholesky"
    }

    fn state_bytes(&self) -> u64 {
        (self.owned_tiles * self.ts * self.ts * 8) as u64
    }

    fn progress_mark(&self) -> u64 {
        self.panels_done as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_state_partitions_the_grid() {
        let (nx, ny, size) = (64usize, 50usize, 4u32);
        let total: u64 = (0..size)
            .map(|r| StencilState::of_rank(r, size, nx, ny).state_bytes())
            .sum();
        assert_eq!(total, (8 * nx * ny) as u64, "stripes cover the field");
        assert!(StencilState::max_state_bytes(size, nx, ny) >= total / size as u64);
    }

    #[test]
    fn dcholesky_states_cover_the_lower_triangle() {
        let (nt, ts, p) = (6usize, 8usize, 3u32);
        let total: u64 = (0..p)
            .map(|r| DCholeskyState::of_rank(r, p, nt, ts).state_bytes())
            .sum();
        let tiles = nt * (nt + 1) / 2;
        assert_eq!(total, (tiles * ts * ts * 8) as u64);
    }

    #[test]
    fn progress_marks_advance_monotonically() {
        let mut s = StencilState::of_rank(0, 2, 16, 16);
        assert_eq!(s.progress_mark(), 0);
        s.advance(10);
        s.advance(5);
        assert_eq!(s.progress_mark(), 15);

        let mut c = DCholeskyState::of_rank(1, 2, 4, 8);
        c.advance(3);
        c.advance(3); // clamped at nt
        assert_eq!(c.progress_mark(), 4);
    }
}
