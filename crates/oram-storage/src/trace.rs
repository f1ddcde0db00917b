//! Bus-level access tracing: the adversary's view.
//!
//! The threat model (paper §2.2) grants the adversary full observation of
//! the memory bus and the I/O bus: for each access it sees *which device*,
//! *which direction*, *which physical address*, *how many bytes*, and
//! *when* — but never plaintext contents (blocks are sealed) and never the
//! control layer's internal state. [`AccessTrace`] records exactly that
//! tuple stream; the leakage analyses in `oram-analysis` and the
//! obliviousness tests consume it.

use crate::clock::SimTime;
use crate::device::{AccessKind, DeviceId};
use parking_lot::Mutex;
use std::sync::Arc;

/// One observable bus event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TraceEvent {
    /// Simulated timestamp of the access.
    pub at: SimTime,
    /// Device the access targeted.
    pub device: DeviceId,
    /// Direction.
    pub kind: AccessKind,
    /// Physical slot address (what the adversary reads off the address
    /// lines). Logical identifiers never appear here.
    pub addr: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// A shared, append-only recording of bus events.
///
/// Cloning produces another handle to the same buffer, so one trace can
/// observe several devices. Recording is cheap (a mutex push); experiments
/// that do not need traces simply do not attach one.
///
/// # Example
///
/// ```
/// use oram_storage::trace::{AccessTrace, TraceEvent};
/// use oram_storage::device::{AccessKind, DeviceId};
/// use oram_storage::clock::SimTime;
///
/// let trace = AccessTrace::new();
/// trace.record(TraceEvent {
///     at: SimTime::ZERO,
///     device: DeviceId(0),
///     kind: AccessKind::Read,
///     addr: 42,
///     bytes: 1024,
/// });
/// assert_eq!(trace.snapshot()[0].addr, 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessTrace {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl AccessTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn record(&self, event: TraceEvent) {
        self.events.lock().push(event);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Copies out all events recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().clone()
    }

    /// Clears the recording (between experiment phases).
    pub fn clear(&self) {
        self.events.lock().clear();
    }

    /// The sequence of addresses touched on one device — the core object of
    /// obliviousness arguments.
    pub fn address_sequence(&self, device: DeviceId) -> Vec<u64> {
        self.events
            .lock()
            .iter()
            .filter(|e| e.device == device)
            .map(|e| e.addr)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(device: u16, addr: u64, kind: AccessKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::ZERO,
            device: DeviceId(device),
            kind,
            addr,
            bytes: 1024,
        }
    }

    #[test]
    fn records_in_order() {
        let trace = AccessTrace::new();
        trace.record(ev(0, 1, AccessKind::Read));
        trace.record(ev(0, 2, AccessKind::Write));
        let events = trace.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].addr, 1);
        assert_eq!(events[1].addr, 2);
    }

    #[test]
    fn clones_share_the_buffer() {
        let trace = AccessTrace::new();
        let other = trace.clone();
        trace.record(ev(0, 7, AccessKind::Read));
        assert_eq!(other.len(), 1);
        other.clear();
        assert!(trace.is_empty());
    }

    #[test]
    fn device_filtering() {
        let trace = AccessTrace::new();
        trace.record(ev(0, 1, AccessKind::Read));
        trace.record(ev(1, 2, AccessKind::Read));
        trace.record(ev(0, 3, AccessKind::Write));
        assert_eq!(trace.address_sequence(DeviceId(0)), vec![1, 3]);
        assert_eq!(trace.address_sequence(DeviceId(1)), vec![2]);
    }

    #[test]
    fn serde_roundtrip_of_events() {
        let event = ev(3, 99, AccessKind::Write);
        let json = serde_json::to_string(&event).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
    }
}
