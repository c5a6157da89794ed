//! Wall-clock spans around the harness's calls into each layer.
//!
//! Spans are recorded only from the benchmark's own files (spans inside
//! the crates are a later change), kept in memory, and written as JSON
//! lines when the run ends. With tracing off — every end-to-end
//! measurement — [`span`] costs one relaxed atomic load.

use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;

use crate::clock::now_ns;

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Crate the call went into (`fabric`, `psmpi`, …) or `harness`.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered (messages, tasks, requests).
    pub count: u64,
}

// Relaxed: the flag publishes no data; it is flipped between runs, never
// while spans are being recorded.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's innermost open span (0 = none).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
}

/// Turn span recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// An open span; records itself when dropped. Inert when tracing is
/// off. Guards must be dropped in reverse order of opening (scopes do).
pub struct Guard(Option<Span>);

/// Open a span as a child of this thread's innermost open span.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.replace(id);
    Guard(Some(Span {
        id,
        parent,
        layer,
        name,
        start_ns: now_ns(),
        end_ns: 0,
        count: 1,
    }))
}

/// Make `parent` the root of this thread's span stack, so spans opened
/// on a worker thread hang under the span that started the thread.
pub fn adopt(parent: u32) {
    CURRENT.set(parent);
}

impl Guard {
    /// Set the number of operations the span covers.
    pub fn count(&mut self, n: u64) {
        if let Some(s) = &mut self.0 {
            s.count = n;
        }
    }

    /// The span's id (0 when tracing is off), for [`adopt`].
    pub fn id(&self) -> u32 {
        self.0.as_ref().map_or(0, |s| s.id)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(mut s) = self.0.take() else { return };
        s.end_ns = now_ns();
        CURRENT.set(s.parent);
        // A poisoned lock only means another thread panicked mid-push;
        // the vector is still a valid list of finished spans.
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(s);
    }
}

/// Number of spans recorded so far.
pub fn recorded() -> usize {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Remove and return every recorded span, ordered by start.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children — two
/// client threads under one parent — are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].parent, spans[i].start_ns));
    spans
        .iter()
        .map(|s| {
            let first = order.partition_point(|&i| spans[i].parent < s.id);
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &i in order[first..]
                .iter()
                .take_while(|&&i| spans[i].parent == s.id)
            {
                let lo = spans[i].start_ns.max(reach);
                let hi = spans[i].end_ns.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per layer, in seconds, largest first.
pub fn layer_self_seconds(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => *t += self_ns as f64 * 1e-9,
            None => totals.push((s.layer, self_ns as f64 * 1e-9)),
        }
    }
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    totals
}

/// Write spans as JSON lines:
/// `{workload, id, parent, layer, name, start_ns, end_ns, count}`.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"layer\":\"{}\",\
             \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.layer, s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer: if id == 1 { "harness" } else { "fabric" },
            name: "t",
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // 1 [0,100] has children 2 [10,30] and 3 [40,90]; 3 has child 4 [50,60].
        let spans = [
            sp(1, 0, 0, 100),
            sp(2, 1, 10, 30),
            sp(3, 1, 40, 90),
            sp(4, 3, 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two client threads under one parent: [10,60] and [40,120]
        // cover [10,100] of the parent's [0,100].
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 60), sp(3, 1, 40, 120)];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn layer_totals_sum_self_time_per_layer() {
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 30), sp(3, 1, 40, 90)];
        let totals = layer_self_seconds(&spans);
        assert_eq!(totals[0].0, "fabric");
        assert!((totals[0].1 - 70e-9).abs() < 1e-15);
        assert!((totals[1].1 - 30e-9).abs() < 1e-15);
    }
}
