//! H-ORAM run statistics — the quantities the paper's Tables 5-3/5-4
//! report.

use oram_storage::clock::SimDuration;
use std::ops::{Add, AddAssign, Sub};

/// Counters accumulated by an [`crate::horam::HOram`] instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HOramStats {
    /// Application requests serviced.
    pub requests: u64,
    /// Of those, writes.
    pub writes: u64,
    /// Scheduling cycles executed.
    pub cycles: u64,
    /// Requests serviced from the memory layer (every request, eventually).
    pub memory_hits: u64,
    /// Dummy path accesses issued as padding.
    pub dummy_memory_accesses: u64,
    /// I/O loads that fetched a requested (missed) block.
    pub real_io_loads: u64,
    /// I/O loads issued as padding (dummy loads).
    pub dummy_io_loads: u64,
    /// Blocks opportunistically prefetched by dummy loads.
    pub prefetched_blocks: u64,
    /// Storage-device busy time during access periods (the paper's
    /// "I/O latency" aggregates this over loads).
    pub io_time: SimDuration,
    /// Memory-device busy time during access periods.
    pub memory_time: SimDuration,
    /// Wall-clock time of access periods (cycles overlap memory and I/O).
    pub access_wall_time: SimDuration,
    /// Wall-clock time of shuffle periods.
    pub shuffle_wall_time: SimDuration,
    /// Completed shuffle periods.
    pub shuffles: u64,
    /// Spill during shuffles: blocks that did not fit their partition,
    /// plus the partitions a partial-shuffle window was extended by
    /// because its free slots could not hold the evicted set.
    pub spilled_blocks: u64,
}

impl HOramStats {
    /// Total I/O loads (the paper's "Number of I/O Access" row).
    pub fn total_io_loads(&self) -> u64 {
        self.real_io_loads + self.dummy_io_loads
    }

    /// Mean storage time per I/O load (the paper's "I/O Latency" row).
    pub fn mean_io_latency(&self) -> SimDuration {
        let loads = self.total_io_loads();
        if loads == 0 {
            SimDuration::ZERO
        } else {
            self.io_time / loads
        }
    }

    /// Total wall-clock time (the paper's "Total Time" row).
    pub fn total_wall_time(&self) -> SimDuration {
        self.access_wall_time + self.shuffle_wall_time
    }

    /// Requests per serviced I/O load — the cacheability win (≈3.5× for
    /// the paper's small dataset, §5.2.1).
    pub fn requests_per_io(&self) -> f64 {
        let loads = self.total_io_loads();
        if loads == 0 {
            0.0
        } else {
            self.requests as f64 / loads as f64
        }
    }

    /// Serializes every counter (snapshot support).
    pub fn save_state(&self, w: &mut oram_crypto::persist::StateWriter) {
        w.put_u64(self.requests);
        w.put_u64(self.writes);
        w.put_u64(self.cycles);
        w.put_u64(self.memory_hits);
        w.put_u64(self.dummy_memory_accesses);
        w.put_u64(self.real_io_loads);
        w.put_u64(self.dummy_io_loads);
        w.put_u64(self.prefetched_blocks);
        w.put_u64(self.io_time.as_nanos());
        w.put_u64(self.memory_time.as_nanos());
        w.put_u64(self.access_wall_time.as_nanos());
        w.put_u64(self.shuffle_wall_time.as_nanos());
        w.put_u64(self.shuffles);
        w.put_u64(self.spilled_blocks);
    }

    /// Reads counters serialized by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`oram_crypto::persist::PersistError`] on truncation.
    pub fn load_state(
        r: &mut oram_crypto::persist::StateReader<'_>,
    ) -> Result<Self, oram_crypto::persist::PersistError> {
        Ok(Self {
            requests: r.get_u64()?,
            writes: r.get_u64()?,
            cycles: r.get_u64()?,
            memory_hits: r.get_u64()?,
            dummy_memory_accesses: r.get_u64()?,
            real_io_loads: r.get_u64()?,
            dummy_io_loads: r.get_u64()?,
            prefetched_blocks: r.get_u64()?,
            io_time: SimDuration::from_nanos(r.get_u64()?),
            memory_time: SimDuration::from_nanos(r.get_u64()?),
            access_wall_time: SimDuration::from_nanos(r.get_u64()?),
            shuffle_wall_time: SimDuration::from_nanos(r.get_u64()?),
            shuffles: r.get_u64()?,
            spilled_blocks: r.get_u64()?,
        })
    }

    /// The counters accumulated since `baseline` was captured.
    ///
    /// Every field is monotone over a run, so subtracting an earlier
    /// snapshot yields the cost of exactly the work in between — the
    /// serving layer uses this to attribute cycles/time to each pumped
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if `baseline` is not an
    /// earlier snapshot of the same run.
    pub fn delta_since(&self, baseline: &HOramStats) -> HOramStats {
        *self - *baseline
    }
}

/// Applies `op` field-by-field — the single place the counter list is
/// spelled out for arithmetic, so `Add`/`Sub` cannot drift apart when a
/// counter is added.
fn zip_fields(a: HOramStats, b: HOramStats, op: FieldOp) -> HOramStats {
    macro_rules! zip {
        ($($field:ident),* $(,)?) => {
            HOramStats {
                $($field: match op {
                    FieldOp::Add => a.$field + b.$field,
                    FieldOp::Sub => a.$field - b.$field,
                }),*
            }
        };
    }
    zip!(
        requests,
        writes,
        cycles,
        memory_hits,
        dummy_memory_accesses,
        real_io_loads,
        dummy_io_loads,
        prefetched_blocks,
        io_time,
        memory_time,
        access_wall_time,
        shuffle_wall_time,
        shuffles,
        spilled_blocks,
    )
}

#[derive(Clone, Copy)]
enum FieldOp {
    Add,
    Sub,
}

impl Add for HOramStats {
    type Output = HOramStats;
    fn add(self, rhs: HOramStats) -> HOramStats {
        zip_fields(self, rhs, FieldOp::Add)
    }
}

impl AddAssign for HOramStats {
    fn add_assign(&mut self, rhs: HOramStats) {
        *self = *self + rhs;
    }
}

impl Sub for HOramStats {
    type Output = HOramStats;
    fn sub(self, rhs: HOramStats) -> HOramStats {
        zip_fields(self, rhs, FieldOp::Sub)
    }
}

/// Benchmark-frozen remnant of the removed pipelined cycle driver, constant
/// zero then (at its default depth) and now: `benchmark/` reads it for its
/// `core.pipeline_planned_ahead_windows` / `core.pipeline_period_stalls`
/// rows; the `benchmark` PR of ROADMAP item 4(a) deletes rows and type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Always 0.
    pub planned_ahead_windows: u64,
    /// Always 0.
    pub period_stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let stats = HOramStats {
            requests: 100,
            real_io_loads: 20,
            dummy_io_loads: 5,
            io_time: SimDuration::from_micros(2500),
            access_wall_time: SimDuration::from_millis(10),
            shuffle_wall_time: SimDuration::from_millis(30),
            ..Default::default()
        };
        assert_eq!(stats.total_io_loads(), 25);
        assert_eq!(stats.mean_io_latency(), SimDuration::from_micros(100));
        assert_eq!(stats.total_wall_time(), SimDuration::from_millis(40));
        assert!((stats.requests_per_io() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let stats = HOramStats::default();
        assert_eq!(stats.mean_io_latency(), SimDuration::ZERO);
        assert_eq!(stats.requests_per_io(), 0.0);
    }

    #[test]
    fn delta_isolates_a_window() {
        let earlier = HOramStats {
            requests: 10,
            cycles: 4,
            io_time: SimDuration::from_micros(5),
            ..Default::default()
        };
        let later = HOramStats {
            requests: 25,
            cycles: 9,
            io_time: SimDuration::from_micros(12),
            ..Default::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.requests, 15);
        assert_eq!(delta.cycles, 5);
        assert_eq!(delta.io_time, SimDuration::from_micros(7));
        assert_eq!(later.delta_since(&later), HOramStats::default());
    }
}
