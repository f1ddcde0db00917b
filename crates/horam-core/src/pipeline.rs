//! The pipelined cycle scheduler's hazard tracking and host-side
//! accounting (the depth knob is
//! [`HOramConfig::pipeline_depth`](crate::config::HOramConfig::pipeline_depth)).
//!
//! PR 2's plan/commit split already separates each scheduling cycle into a
//! **control sweep** (ROB scan, position-map lookups, period markers, stash
//! reservation — trusted-side, no observable accesses) and a **device +
//! crypto phase** (the window's scatter read plus verify/decrypt of the
//! returned ciphertexts). The pipelined driver
//! ([`HOram::run_cycle_burst`](crate::horam::HOram::run_cycle_burst)) overlaps
//! them: while window `k`'s decrypt runs on the worker pool
//! ([`WorkerPool`](crate::pool::WorkerPool)), the scheduling thread plans
//! windows `k+1 … k+depth−1` ahead. The same mechanism overlaps the
//! shuffle epoch's position-map rebuild with the fresh-tree write.
//!
//! **Determinism invariant (test-enforced, `tests/pipeline.rs`):**
//! responses, bus traces, statistics, and the simulated clock are
//! byte-identical at every pipeline depth; depth 1 *is* the unpipelined
//! scheduler. Three properties make the overlap invisible:
//!
//! 1. **Plan closure** — planning mutates only control state (ROB, position
//!    map, touched markers, PRP cursor, the memory layer's RNG stream),
//!    and the overlapped decrypt reads none of it: the decrypt works on an
//!    owned [`BatchOpener`](crate::storage_layer::BatchOpener) plus the
//!    raw ciphertexts, already charged and traced by the commit.
//! 2. **Canonical device order** — every device operation, trace record,
//!    and clock advance stays on the scheduling thread in plan order;
//!    workers only ever compute (decrypt, verify, rebuild position pages
//!    on their own level traces).
//! 3. **Pre-drawn randomness** — each cycle's memory-layer leaves are
//!    drawn at *plan* time in the execution order (hits, then dummy pads,
//!    then the I/O arrival), so overlap depth cannot reorder the
//!    deterministic RNG stream (regression-pinned in `tests/pipeline.rs`).
//!
//! Hazards are *structural*, never data-dependent: the once-per-period
//! slot markers make in-flight windows disjoint by construction (the
//! [`HazardTracker`] enforces it), and planning stalls deterministically at
//! the period boundary — the upcoming epoch rebuild owns every partition,
//! so lookahead resumes only after the shuffle retires. Stalls depend only
//! on the period budget, which the adversary already knows. See
//! `docs/PIPELINE.md` for the full argument and a worked timeline.

use oram_protocols::error::OramError;
use std::collections::{HashSet, VecDeque};

/// Host-side pipeline counters: how often the overlap actually engaged.
///
/// Volatile (never part of snapshots) and **excluded from
/// [`HOramStats`](crate::stats::HOramStats)** on purpose: these counters
/// describe wall-clock execution strategy, which varies with depth and
/// thread count, while `HOramStats` is part of the byte-identical
/// observable surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Window commits whose decrypt ran on a worker while the scheduling
    /// thread planned ahead.
    pub overlapped_commits: u64,
    /// Windows planned while an earlier window's commit was still open.
    pub planned_ahead_windows: u64,
    /// Lookahead stalls at a period boundary (the epoch rebuild owns
    /// every partition, so planning deterministically waits for the
    /// shuffle).
    pub period_stalls: u64,
    /// Shuffle epochs whose position-map rebuild overlapped the fresh
    /// memory-tree write.
    pub shuffle_overlaps: u64,
    /// Peak windows in flight at once (committed or planned ahead).
    pub max_windows_in_flight: u64,
    /// Peak stash slots reserved by in-flight windows (each pending I/O
    /// arrival holds one until its insert executes).
    pub stash_reserved_peak: u64,
}

/// One in-flight window's claims: the storage slots its loads own until
/// the memory half retires, and the stash slots its arrivals will fill.
#[derive(Debug)]
struct WindowClaim {
    slots: Vec<u64>,
    inserts: u64,
}

/// Explicit hazard accounting for the pipelined driver.
///
/// The scheduler's once-per-period `touched` markers already guarantee
/// that two loads can never name the same slot within a period, so
/// windows in flight are disjoint *by construction*; the tracker turns
/// that construction into an enforced invariant — a planned window whose
/// slots collide with an in-flight window is refused with a typed error
/// before anything is committed — and carries the plan-time stash
/// reservations the control sweep makes for pending I/O arrivals.
#[derive(Debug, Default)]
pub struct HazardTracker {
    in_flight: VecDeque<WindowClaim>,
    owned: HashSet<u64>,
    stash_reserved: u64,
    stash_reserved_peak: u64,
}

impl HazardTracker {
    /// A tracker with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly planned window: `slots` are the storage slots
    /// its loads will read, `inserts` the stash entries its arrivals will
    /// occupy until their memory halves run.
    ///
    /// # Errors
    ///
    /// [`OramError::Internal`] if any slot is already owned by an
    /// in-flight window — a violation of the once-per-period invariant
    /// (fail-stop: the control state is damaged).
    pub fn reserve_window(&mut self, slots: &[u64], inserts: u64) -> Result<(), OramError> {
        for &slot in slots {
            if !self.owned.insert(slot) {
                return Err(OramError::internal(format!(
                    "pipeline hazard: slot {slot} already owned by an in-flight window"
                )));
            }
        }
        self.stash_reserved += inserts;
        self.stash_reserved_peak = self.stash_reserved_peak.max(self.stash_reserved);
        self.in_flight.push_back(WindowClaim {
            slots: slots.to_vec(),
            inserts,
        });
        Ok(())
    }

    /// Retires the oldest in-flight window (its memory half has run):
    /// releases its slot claims and stash reservations.
    pub fn retire_window(&mut self) {
        if let Some(claim) = self.in_flight.pop_front() {
            for slot in claim.slots {
                self.owned.remove(&slot);
            }
            self.stash_reserved = self.stash_reserved.saturating_sub(claim.inserts);
        }
    }

    /// Windows currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Stash slots currently reserved by in-flight windows.
    pub fn stash_reserved(&self) -> u64 {
        self.stash_reserved
    }

    /// Peak stash reservation observed.
    pub fn stash_reserved_peak(&self) -> u64 {
        self.stash_reserved_peak
    }

    /// Whether nothing is in flight (shuffles and snapshots require it).
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// Drops every claim (the shuffle epoch voided in-flight loads).
    pub fn clear(&mut self) {
        self.in_flight.clear();
        self.owned.clear();
        self.stash_reserved = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_enforces_slot_disjointness() {
        let mut tracker = HazardTracker::new();
        tracker.reserve_window(&[1, 2, 3], 2).unwrap();
        tracker.reserve_window(&[4, 5], 0).unwrap();
        assert_eq!(tracker.in_flight(), 2);
        assert_eq!(tracker.stash_reserved(), 2);
        let err = tracker.reserve_window(&[5, 6], 1).unwrap_err();
        assert!(matches!(err, OramError::Internal { .. }));
    }

    #[test]
    fn retire_releases_claims_in_fifo_order() {
        let mut tracker = HazardTracker::new();
        tracker.reserve_window(&[1, 2], 1).unwrap();
        tracker.reserve_window(&[3], 1).unwrap();
        assert_eq!(tracker.stash_reserved_peak(), 2);
        tracker.retire_window();
        assert_eq!(tracker.stash_reserved(), 1);
        // Slot 1 is free again once its window retired.
        tracker.reserve_window(&[1], 0).unwrap();
        tracker.retire_window();
        tracker.retire_window();
        assert!(tracker.is_empty());
        assert_eq!(tracker.stash_reserved(), 0);
        assert_eq!(tracker.stash_reserved_peak(), 2);
    }

    #[test]
    fn clear_voids_everything() {
        let mut tracker = HazardTracker::new();
        tracker.reserve_window(&[7], 1).unwrap();
        tracker.clear();
        assert!(tracker.is_empty());
        tracker.reserve_window(&[7], 0).unwrap();
    }
}
