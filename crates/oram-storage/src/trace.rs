//! Bus-level access tracing: the adversary's view.
//!
//! The threat model (paper §2.2) grants the adversary full observation of
//! the memory bus and the I/O bus: for each access it sees *which device*,
//! *which direction*, *which physical address*, *how many bytes*, and
//! *when* — but never plaintext contents (blocks are sealed) and never the
//! control layer's internal state. [`AccessTrace`] observes exactly that
//! tuple stream: by default as a count and an O(1) digest, and event by
//! event when built with [`AccessTrace::recording`] — the form the
//! leakage analyses in `oram-analysis` and the obliviousness tests read.

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

/// Odd multiplier of the digest's rotate-multiply fold, which makes each
/// step a bijection in both the running hash and the folded field.
const DIGEST_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

const NOT_RECORDING: &str = "this AccessTrace keeps only (len, digest); build it with \
     AccessTrace::recording() or MemoryHierarchy::recording() to read its events";

#[derive(Debug, Default)]
struct TraceState {
    count: usize,
    digest: u64,
    /// The events themselves, on a recording trace only.
    events: Option<Vec<TraceEvent>>,
}

/// A shared, append-only view of bus events.
///
/// Cloning produces another handle to the same state, so one trace can
/// observe several devices. Every trace keeps the event count and a
/// running 64-bit [`digest`](Self::digest) over all five fields of every
/// event, in order — O(1) memory, enough to tell two whole traces apart.
/// Only a trace built with [`recording`](Self::recording) also retains
/// the events, for the tests and dumps that read them back.
///
/// # Example
///
/// ```
/// use oram_storage::trace::{AccessTrace, TraceEvent};
/// use oram_storage::device::{AccessKind, DeviceId};
/// use oram_storage::clock::SimTime;
///
/// let (at, device, kind) = (SimTime::ZERO, DeviceId(0), AccessKind::Read);
/// let event = TraceEvent { at, device, kind, addr: 42, bytes: 1024 };
/// let (digest, recording) = (AccessTrace::new(), AccessTrace::recording());
/// digest.record(event);
/// recording.record(event);
/// assert_eq!(recording.snapshot()[0].addr, 42);
/// assert_eq!(digest.digest(), recording.digest());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccessTrace {
    state: Arc<Mutex<TraceState>>,
}

impl AccessTrace {
    /// Creates an empty trace that keeps only the count and digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace that also retains every event.
    pub fn recording() -> Self {
        let trace = Self::new();
        trace.start_recording();
        trace
    }

    /// Makes this still-empty trace, through every handle to it, retain
    /// events from now on.
    pub(crate) fn start_recording(&self) {
        let mut state = self.state.lock();
        assert_eq!(state.count, 0, "recording starts on an empty trace");
        state.events.get_or_insert_with(Vec::new);
    }

    /// Whether this trace retains events.
    pub fn is_recording(&self) -> bool {
        self.state.lock().events.is_some()
    }

    /// Appends an event.
    pub fn record(&self, event: TraceEvent) {
        // The kind folds as 1 or 2, so that no event — not even one whose
        // other fields are all zero — leaves an all-zero digest unchanged.
        let fields = [
            event.at.as_nanos(),
            u64::from(event.device.0),
            1 + matches!(event.kind, AccessKind::Write) as u64,
            event.addr,
            event.bytes,
        ];
        let mut state = self.state.lock();
        state.count += 1;
        state.digest = fields.into_iter().fold(state.digest, |h, field| {
            (h.rotate_left(5) ^ field).wrapping_mul(DIGEST_MUL)
        });
        if let Some(events) = &mut state.events {
            events.push(event);
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.state.lock().count
    }

    /// Whether no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Order-sensitive hash of every event recorded so far: two traces
    /// with equal [`len`](Self::len) and digest saw the same events, up to
    /// a 64-bit hash collision.
    pub fn digest(&self) -> u64 {
        self.state.lock().digest
    }

    /// Copies out all events recorded so far. Panics unless the trace was
    /// built with [`recording`](Self::recording).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.state.lock().events.clone().expect(NOT_RECORDING)
    }

    /// Resets the count, the digest and any retained events (between
    /// experiment phases).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.count = 0;
        state.digest = 0;
        if let Some(events) = &mut state.events {
            events.clear();
        }
    }

    /// Every event without its timestamp, in order: the view that cache
    /// hits and retries (which move only time) must leave unchanged.
    /// Panics unless the trace was built with [`recording`](Self::recording).
    pub fn untimed(&self) -> Vec<(DeviceId, AccessKind, u64, u64)> {
        let state = self.state.lock();
        let events = state.events.as_ref().expect(NOT_RECORDING);
        events
            .iter()
            .map(|e| (e.device, e.kind, e.addr, e.bytes))
            .collect()
    }

    /// The sequence of addresses touched on one device — the core object of
    /// obliviousness arguments. Panics unless the trace was built with
    /// [`recording`](Self::recording).
    pub fn address_sequence(&self, device: DeviceId) -> Vec<u64> {
        let state = self.state.lock();
        let events = state.events.as_ref().expect(NOT_RECORDING);
        events
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
        let trace = AccessTrace::recording();
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
        let trace = AccessTrace::recording();
        trace.record(ev(0, 1, AccessKind::Read));
        trace.record(ev(1, 2, AccessKind::Read));
        trace.record(ev(0, 3, AccessKind::Write));
        assert_eq!(trace.address_sequence(DeviceId(0)), vec![1, 3]);
        assert_eq!(trace.address_sequence(DeviceId(1)), vec![2]);
    }

    fn digest_of(events: &[TraceEvent]) -> u64 {
        let trace = AccessTrace::new();
        events.iter().for_each(|&e| trace.record(e));
        trace.digest()
    }

    #[test]
    fn digest_covers_every_field_and_the_order() {
        let base = [ev(0, 1, AccessKind::Read), ev(1, 2, AccessKind::Read)];
        let edits: [fn(&mut TraceEvent); 5] = [
            |e| e.at = SimTime::from_nanos(1),
            |e| e.device = DeviceId(7),
            |e| e.kind = AccessKind::Write,
            |e| e.addr += 1,
            |e| e.bytes += 1,
        ];
        for (field, index) in (0..5).flat_map(|field| [(field, 0), (field, 1)]) {
            let mut changed = base;
            edits[field](&mut changed[index]);
            assert_ne!(digest_of(&changed), digest_of(&base), "{field}/{index}");
        }
        assert_ne!(digest_of(&[base[1], base[0]]), digest_of(&base), "swapped");
        let zero = TraceEvent {
            bytes: 0,
            ..ev(0, 0, AccessKind::Read)
        };
        assert_ne!(
            digest_of(&[zero, base[0]]),
            digest_of(&base[..1]),
            "zero event"
        );
    }

    #[test]
    fn clear_resets_the_digest() {
        let trace = AccessTrace::new();
        trace.record(ev(0, 1, AccessKind::Write));
        assert_ne!(trace.digest(), digest_of(&[]));
        trace.clear();
        assert_eq!((trace.len(), trace.digest()), (0, digest_of(&[])));
    }

    #[test]
    fn recording_and_digest_only_traces_agree() {
        let (digest, recording) = (AccessTrace::new(), AccessTrace::recording());
        for i in 0..100 {
            let event = ev((i % 3) as u16, i * 7, AccessKind::Read);
            digest.record(event);
            recording.record(event);
        }
        assert_eq!(recording.snapshot().len(), 100);
        let fingerprint = |t: &AccessTrace| (t.len(), t.digest());
        assert_eq!(fingerprint(&digest), fingerprint(&recording));
        assert!(!digest.is_recording() && recording.is_recording());
    }

    #[test]
    #[should_panic(expected = "AccessTrace::recording()")]
    fn snapshot_of_a_digest_only_trace_panics() {
        let trace = AccessTrace::new();
        trace.record(ev(0, 1, AccessKind::Read));
        let _ = trace.snapshot();
    }

    #[test]
    #[should_panic(expected = "AccessTrace::recording()")]
    fn address_sequence_of_a_digest_only_trace_panics() {
        let _ = AccessTrace::new().address_sequence(DeviceId(0));
    }

    #[test]
    fn serde_roundtrip_of_events() {
        let event = ev(3, 99, AccessKind::Write);
        let json = serde_json::to_string(&event).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(event, back);
    }
}
