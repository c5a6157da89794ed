//! Typed event tracing for simulated protocols.
//!
//! Disabled by default; when disabled, [`crate::Sim::emit`] does not
//! even build its payload string (it takes a closure). When enabled,
//! every event carries its virtual timestamp, the emitting component,
//! an event kind and a payload, so tests can assert on event *ordering
//! and structure* rather than grepping formatted strings.
//!
//! Component and kind are literals named at the call site
//! (`sim.emit("net", "drop", || …)`), so recording an event allocates
//! only the payload the caller builds. Counts are not traced: a counter
//! is a typed field with an accessor on the component that owns it
//! ([`crate::Simulation::events_processed`], psmpi's `TrafficStats`,
//! cbp's `CbpFaultStats`).

use crate::time::SimTime;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event was emitted at.
    pub at: SimTime,
    /// The emitting component (e.g. `"net"`, `"cbp"`, `"resmgr"`).
    pub component: &'static str,
    /// Event kind within the component (e.g. `"retry"`, `"node-down"`).
    pub kind: &'static str,
    /// Free-form payload describing the event.
    pub payload: String,
}
