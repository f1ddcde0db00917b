//! Per-device access accounting.

use crate::clock::SimDuration;
use crate::device::AccessKind;

/// Counters accumulated by a [`crate::device::Device`].
///
/// `busy` is the sum of simulated access costs — the device-occupancy time
/// an experiment apportions to serial or overlapped execution as its
/// protocol dictates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DeviceStats {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Bytes charged for reads.
    pub bytes_read: u64,
    /// Bytes charged for writes.
    pub bytes_written: u64,
    /// Total simulated occupancy (`busy_read + busy_write`).
    pub busy: SimDuration,
    /// Occupancy attributable to reads. Separated so protocols that
    /// pipeline a read stream against a write stream (H-ORAM's partition
    /// shuffle) can compute `max(read, write)` wall-clock time.
    pub busy_read: SimDuration,
    /// Occupancy attributable to writes.
    pub busy_write: SimDuration,
}

impl DeviceStats {
    /// Records one access.
    pub fn record(&mut self, kind: AccessKind, bytes: u64, cost: SimDuration) {
        match kind {
            AccessKind::Read => {
                self.reads += 1;
                self.bytes_read += bytes;
                self.busy_read += cost;
            }
            AccessKind::Write => {
                self.writes += 1;
                self.bytes_written += bytes;
                self.busy_write += cost;
            }
        }
        self.busy += cost;
    }

    /// Total operation count.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Component-wise sum of two stats records.
    pub fn merged(&self, other: &DeviceStats) -> DeviceStats {
        DeviceStats {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            busy: self.busy + other.busy,
            busy_read: self.busy_read + other.busy_read,
            busy_write: self.busy_write + other.busy_write,
        }
    }

    /// Component-wise difference (`self − earlier`), for interval deltas.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` exceeds `self` in any component.
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            busy: self.busy - earlier.busy,
            busy_read: self.busy_read - earlier.busy_read,
            busy_write: self.busy_write - earlier.busy_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_by_kind() {
        let mut stats = DeviceStats::default();
        stats.record(AccessKind::Read, 100, SimDuration::from_nanos(5));
        stats.record(AccessKind::Write, 200, SimDuration::from_nanos(10));
        stats.record(AccessKind::Read, 50, SimDuration::from_nanos(5));
        assert_eq!(stats.reads, 2);
        assert_eq!(stats.writes, 1);
        assert_eq!(stats.bytes_read, 150);
        assert_eq!(stats.bytes_written, 200);
        assert_eq!(stats.busy.as_nanos(), 20);
        assert_eq!(stats.ops(), 3);
        assert_eq!(stats.bytes(), 350);
    }

    #[test]
    fn merged_sums_componentwise() {
        let mut a = DeviceStats::default();
        a.record(AccessKind::Read, 10, SimDuration::from_nanos(1));
        let mut b = DeviceStats::default();
        b.record(AccessKind::Write, 20, SimDuration::from_nanos(2));
        let m = a.merged(&b);
        assert_eq!(m.reads, 1);
        assert_eq!(m.writes, 1);
        assert_eq!(m.bytes(), 30);
        assert_eq!(m.busy.as_nanos(), 3);
    }
}
