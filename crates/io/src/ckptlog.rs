//! Pure multi-level checkpoint bookkeeping (no simulated time).
//!
//! The SCR-style invariant lives here, separated from the DES plumbing so
//! it can be property-tested exhaustively: a checkpoint committed at a
//! level that *survives* a failure severity must be recoverable after any
//! sequence of failures of at most that severity.

use deep_simkit::SimRng;

/// Where a checkpoint's replica lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CkptLevel {
    /// L1: node-local NVM. Fast; lost with the node.
    L1Local,
    /// L2: partner/buddy copy on another node. Survives single-node loss.
    L2Partner,
    /// L3: parallel file system. Survives multi-node loss.
    L3Pfs,
}

impl CkptLevel {
    /// All levels, cheapest first.
    pub const ALL: [CkptLevel; 3] = [CkptLevel::L1Local, CkptLevel::L2Partner, CkptLevel::L3Pfs];

    /// Stable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            CkptLevel::L1Local => "L1 local NVM",
            CkptLevel::L2Partner => "L2 buddy",
            CkptLevel::L3Pfs => "L3 PFS",
        }
    }

    fn index(&self) -> usize {
        *self as usize
    }

    /// The level the `count`-th checkpoint is written at when every
    /// `l2_every`-th goes to L2 and every `l3_every`-th to L3 (0 = never;
    /// L3 takes precedence when both divide `count`).
    pub fn rotation(count: u64, l2_every: u32, l3_every: u32) -> CkptLevel {
        if l3_every > 0 && count.is_multiple_of(l3_every as u64) {
            CkptLevel::L3Pfs
        } else if l2_every > 0 && count.is_multiple_of(l2_every as u64) {
            CkptLevel::L2Partner
        } else {
            CkptLevel::L1Local
        }
    }

    /// Does a replica at this level survive a failure of this severity?
    pub fn survives(&self, severity: FailureSeverity) -> bool {
        match severity {
            // Process crash / transient: all storage intact.
            FailureSeverity::Transient => true,
            // One node (and its NVM + its buddy copies *of others*) gone;
            // this job's L1 copy on the failed node is lost, the partner
            // copy on the surviving buddy is not.
            FailureSeverity::NodeLoss => *self >= CkptLevel::L2Partner,
            // Several nodes at once (rack/PSU): buddy pairs can both die,
            // only the PFS copy is guaranteed.
            FailureSeverity::MultiNodeLoss => *self == CkptLevel::L3Pfs,
        }
    }
}

/// How much of the machine a failure takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureSeverity {
    /// Process-level fault; all storage survives.
    Transient,
    /// A single node (with its local NVM) is lost.
    NodeLoss,
    /// Multiple nodes fail together (buddy pairs included).
    MultiNodeLoss,
}

impl FailureSeverity {
    /// All severities, mildest first.
    pub const ALL: [FailureSeverity; 3] = [
        FailureSeverity::Transient,
        FailureSeverity::NodeLoss,
        FailureSeverity::MultiNodeLoss,
    ];

    /// Draw a severity with odds proportional to `weights` ([transient,
    /// node loss, multi-node loss]), one `gen_f64` per draw.
    pub fn draw(rng: &mut SimRng, weights: [f64; 3]) -> FailureSeverity {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "severity weights must not all be zero");
        let mut u = rng.gen_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            u -= w;
            if u < 0.0 {
                return FailureSeverity::ALL[i];
            }
        }
        FailureSeverity::MultiNodeLoss
    }
}

/// Tracks, per level, the newest committed checkpoint's work mark.
///
/// Marks are opaque monotone progress counters (the resilience model uses
/// "seconds of completed work"; tests use integers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitLog {
    latest: [Option<u64>; 3],
}

impl CommitLog {
    /// Empty log: nothing committed anywhere.
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// Record a checkpoint committed at `level` with progress `mark`.
    /// A level only ever moves forward (a newer checkpoint replaces the
    /// older one on the same storage).
    pub fn commit(&mut self, level: CkptLevel, mark: u64) {
        let slot = &mut self.latest[level.index()];
        *slot = Some(slot.map_or(mark, |m| m.max(mark)));
    }

    /// Apply a failure: every replica level that does not survive the
    /// severity is invalidated.
    pub fn fail(&mut self, severity: FailureSeverity) {
        for level in CkptLevel::ALL {
            if !level.survives(severity) {
                self.latest[level.index()] = None;
            }
        }
    }

    /// Latest committed mark still present at `level`.
    pub fn latest(&self, level: CkptLevel) -> Option<u64> {
        self.latest[level.index()]
    }

    /// The best recovery candidate: the newest surviving mark, restored
    /// from the cheapest level that holds it.
    pub fn best(&self) -> Option<(CkptLevel, u64)> {
        let newest = self.latest.iter().flatten().copied().max()?;
        let level = CkptLevel::ALL
            .into_iter()
            .find(|l| self.latest[l.index()] == Some(newest))
            .expect("some level holds the newest mark");
        Some((level, newest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_prefers_newest_then_cheapest() {
        let mut log = CommitLog::new();
        log.commit(CkptLevel::L3Pfs, 10);
        log.commit(CkptLevel::L1Local, 30);
        log.commit(CkptLevel::L2Partner, 30);
        // Newest mark 30 exists at L1 and L2; L1 is cheaper.
        assert_eq!(log.best(), Some((CkptLevel::L1Local, 30)));
        log.fail(FailureSeverity::NodeLoss);
        assert_eq!(log.best(), Some((CkptLevel::L2Partner, 30)));
        log.fail(FailureSeverity::MultiNodeLoss);
        assert_eq!(log.best(), Some((CkptLevel::L3Pfs, 10)));
    }

    #[test]
    fn l1_only_cannot_recover_from_node_loss() {
        let mut log = CommitLog::new();
        log.commit(CkptLevel::L1Local, 100);
        log.fail(FailureSeverity::NodeLoss);
        assert_eq!(log.best(), None);
    }

    #[test]
    fn transient_failures_lose_nothing() {
        let mut log = CommitLog::new();
        log.commit(CkptLevel::L1Local, 7);
        log.fail(FailureSeverity::Transient);
        assert_eq!(log.best(), Some((CkptLevel::L1Local, 7)));
    }

    #[test]
    fn commits_are_monotone() {
        let mut log = CommitLog::new();
        log.commit(CkptLevel::L3Pfs, 20);
        log.commit(CkptLevel::L3Pfs, 5); // stale write-back must not regress
        assert_eq!(log.latest(CkptLevel::L3Pfs), Some(20));
    }
}
