//! Typed event tracing for simulated protocols.
//!
//! Disabled by default; when disabled, [`crate::Sim::emit`] and
//! [`crate::Sim::trace`] do not even build their payload strings (they
//! take closures). When enabled, every event carries its virtual
//! timestamp, the emitting component, an event kind, and a payload, so
//! tests can assert on event *ordering and structure* rather than
//! grepping formatted strings.
//!
//! ## Interning
//!
//! Component and kind names repeat massively (a retry storm emits the
//! same `("net", "drop")` pair thousands of times), so the tracer stores
//! them as `u16` ids into a per-run string table and materialises
//! [`TraceEvent`]s — with owned `String` names — only at export in
//! [`Tracer::take`]. Recording an event therefore allocates nothing
//! beyond the payload the caller already built. Hot call sites can go
//! one step further and pre-intern a [`TraceKey`] to skip even the name
//! lookups.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// One recorded trace event, as handed out at export time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event was emitted at.
    pub at: SimTime,
    /// The emitting component (e.g. `"net"`, `"cbp"`, `"resmgr"`).
    pub component: String,
    /// Event kind within the component (e.g. `"retry"`, `"node-down"`).
    pub kind: String,
    /// Free-form payload describing the event.
    pub payload: String,
}

impl TraceEvent {
    /// Render the event as a single human-readable line.
    pub fn render(&self) -> String {
        if self.component == "sim" && self.kind == "msg" {
            self.payload.clone()
        } else {
            format!("[{}/{}] {}", self.component, self.kind, self.payload)
        }
    }
}

/// Pre-interned `(component, kind)` pair. Obtained from
/// [`crate::Sim::trace_key`]; valid for the whole run, including across
/// [`Tracer::take`] drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    comp: u16,
    kind: u16,
}

/// Internal event representation: ids instead of owned name strings.
struct RawEvent {
    at: SimTime,
    key: TraceKey,
    payload: String,
}

pub(crate) struct Tracer {
    enabled: bool,
    events: Vec<RawEvent>,
    /// Interned name table; `TraceKey` ids index into this.
    names: Vec<String>,
    ids: BTreeMap<String, u16>,
}

impl Tracer {
    pub(crate) fn disabled() -> Self {
        Tracer {
            enabled: false,
            events: Vec::new(),
            names: Vec::new(),
            ids: BTreeMap::new(),
        }
    }

    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    #[inline]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn intern(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("trace name table overflow (>65535)");
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Intern a `(component, kind)` pair into a reusable key.
    pub(crate) fn intern_key(&mut self, component: &str, kind: &str) -> TraceKey {
        TraceKey {
            comp: self.intern(component),
            kind: self.intern(kind),
        }
    }

    /// Record an event, interning its names on the fly.
    pub(crate) fn record_named(
        &mut self,
        at: SimTime,
        component: &str,
        kind: &str,
        payload: String,
    ) {
        let key = self.intern_key(component, kind);
        self.events.push(RawEvent { at, key, payload });
    }

    /// Record an event through a pre-interned key (no name lookup at all).
    #[inline]
    pub(crate) fn record_key(&mut self, at: SimTime, key: TraceKey, payload: String) {
        debug_assert!(
            (key.comp as usize) < self.names.len() && (key.kind as usize) < self.names.len(),
            "TraceKey from a different run"
        );
        self.events.push(RawEvent { at, key, payload });
    }

    /// Drain recorded events, resolving interned ids back to names. The
    /// interner itself is kept, so previously handed-out [`TraceKey`]s
    /// stay valid for subsequent recording.
    pub(crate) fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
            .into_iter()
            .map(|e| TraceEvent {
                at: e.at,
                component: self.names[e.key.comp as usize].clone(),
                kind: self.names[e.key.kind as usize].clone(),
                payload: e.payload,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_total() {
        let mut t = Tracer::disabled();
        t.enable();
        let k1 = t.intern_key("net", "drop");
        let k2 = t.intern_key("net", "retry");
        let k3 = t.intern_key("cbp", "drop");
        // Re-interning yields the same ids.
        assert_eq!(t.intern_key("net", "drop"), k1);
        assert_eq!(t.intern_key("cbp", "drop"), k3);
        // Shared names share ids across positions.
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);

        t.record_key(SimTime::ZERO, k1, "a".into());
        t.record_key(SimTime::ZERO, k2, "b".into());
        t.record_key(SimTime::ZERO, k3, "c".into());
        let events = t.take();
        let names: Vec<(&str, &str)> = events
            .iter()
            .map(|e| (e.component.as_str(), e.kind.as_str()))
            .collect();
        assert_eq!(names, [("net", "drop"), ("net", "retry"), ("cbp", "drop")]);
    }

    #[test]
    fn keys_survive_take() {
        let mut t = Tracer::disabled();
        t.enable();
        let k = t.intern_key("io", "flush");
        t.record_key(SimTime::ZERO, k, "first".into());
        assert_eq!(t.take().len(), 1);
        // The drain kept the interner: the old key still resolves.
        t.record_key(SimTime::ZERO, k, "second".into());
        let events = t.take();
        assert_eq!(events[0].component, "io");
        assert_eq!(events[0].kind, "flush");
        assert_eq!(events[0].payload, "second");
        // And re-interning after a drain is still idempotent.
        assert_eq!(t.intern_key("io", "flush"), k);
    }
}
