//! The secure scheduler (paper §4.2).
//!
//! Each scheduling cycle groups `c` memory-serviceable requests with
//! exactly one I/O load, so every cycle presents the identical observable
//! shape — `c` path accesses on the memory bus overlapped with one block
//! read on the I/O bus — regardless of the actual hit/miss mix ("each
//! scheduling group has the same hit and miss pattern", §4.4.2). Shortfalls
//! are padded: missing hits become dummy path accesses, a missing miss
//! becomes a dummy I/O load.
//!
//! The planner scans the first `d` ROB entries (`d > c`, the prefetch
//! distance) exactly as in Figure 4-2: hits anywhere in the window may be
//! hoisted, and the first available miss is issued so its block is in
//! memory by the time its request's turn comes.
//!
//! Callers normally reach the planner through
//! [`RequestQueue::plan`](crate::queue::RequestQueue::plan), which owns
//! the ROB being scanned; [`plan_cycle`] stays public for direct
//! experimentation with scheduler policies.

use crate::rob::{RobEntry, RobTable};
use oram_protocols::types::BlockId;

/// The plan for one scheduling cycle.
#[derive(Debug)]
pub struct CyclePlan {
    /// Requests serviced in memory this cycle (removed from the ROB).
    pub hits: Vec<RobEntry>,
    /// The ROB ticket whose miss I/O is issued this cycle, if any.
    pub miss_ticket: Option<u64>,
    /// The block the I/O load targets (`None` ⇒ dummy load).
    pub miss_block: Option<BlockId>,
    /// Dummy path accesses needed to pad the memory half to `c`.
    pub dummy_memory: u32,
    /// The grouping factor used for this cycle.
    pub c: u32,
}

impl CyclePlan {
    /// Whether the I/O half of the cycle is a dummy load.
    pub fn io_is_dummy(&self) -> bool {
        self.miss_block.is_none()
    }
}

/// Plans one cycle: removes up to `c` hit entries from the ROB's first
/// `d` positions, selects the first un-issued miss in the window, and
/// computes padding. `is_hit` is the control layer's residency test.
pub fn plan_cycle(
    rob: &mut RobTable,
    c: u32,
    d: usize,
    mut is_hit: impl FnMut(BlockId) -> bool,
) -> CyclePlan {
    let mut hit_tickets: Vec<u64> = Vec::with_capacity(c as usize);
    let mut miss: Option<(u64, BlockId)> = None;

    for entry in rob.window(d) {
        let id = entry.request.id;
        if is_hit(id) {
            if hit_tickets.len() < c as usize {
                hit_tickets.push(entry.ticket);
            }
        } else if miss.is_none() && !entry.io_issued {
            miss = Some((entry.ticket, id));
        }
        if hit_tickets.len() == c as usize && miss.is_some() {
            break;
        }
    }

    if let Some((ticket, _)) = miss {
        rob.mark_io_issued(ticket);
    }
    let hits = rob.take(&hit_tickets);
    let dummy_memory = c - hits.len() as u32;
    CyclePlan {
        hits,
        miss_ticket: miss.map(|(t, _)| t),
        miss_block: miss.map(|(_, b)| b),
        dummy_memory,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_protocols::types::Request;
    use std::collections::HashSet;

    fn rob_with(ids: &[u64]) -> RobTable {
        let mut rob = RobTable::new();
        for &id in ids {
            rob.push(Request::read(id));
        }
        rob
    }

    #[test]
    fn groups_c_hits_and_one_miss() {
        // Memory-resident: even ids. Queue: H H M H M …
        let mut rob = rob_with(&[0, 2, 1, 4, 3]);
        let plan = plan_cycle(&mut rob, 3, 9, |id| id.0 % 2 == 0);
        assert_eq!(plan.hits.len(), 3);
        let hit_ids: HashSet<u64> = plan.hits.iter().map(|e| e.request.id.0).collect();
        assert_eq!(hit_ids, HashSet::from([0, 2, 4]));
        assert_eq!(plan.miss_block, Some(BlockId(1)));
        assert_eq!(plan.dummy_memory, 0);
        assert!(!plan.io_is_dummy());
        // Misses stay queued.
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn pads_memory_when_hits_are_scarce() {
        let mut rob = rob_with(&[1, 3, 5]); // all misses
        let plan = plan_cycle(&mut rob, 3, 9, |_| false);
        assert!(plan.hits.is_empty());
        assert_eq!(plan.dummy_memory, 3);
        assert_eq!(plan.miss_block, Some(BlockId(1)));
        assert_eq!(rob.len(), 3, "misses remain until their block lands");
    }

    #[test]
    fn pads_io_when_no_miss_in_window() {
        let mut rob = rob_with(&[0, 2, 4]);
        let plan = plan_cycle(&mut rob, 2, 9, |_| true);
        assert_eq!(plan.hits.len(), 2);
        assert!(plan.io_is_dummy());
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn window_bounds_the_scan() {
        // Miss sits beyond the window: cycle must use a dummy load.
        let mut rob = rob_with(&[0, 2, 4, 6, 1]);
        let plan = plan_cycle(&mut rob, 2, 3, |id| id.0 % 2 == 0);
        assert!(plan.io_is_dummy(), "miss at position 4 is outside d=3");
        assert_eq!(plan.hits.len(), 2);
    }

    #[test]
    fn issued_misses_are_not_reissued() {
        let mut rob = rob_with(&[1, 3]);
        let first = plan_cycle(&mut rob, 1, 9, |_| false);
        assert_eq!(first.miss_block, Some(BlockId(1)));
        // Same state (block 1 still "in flight", not yet a hit): the next
        // cycle must pick block 3, not re-issue block 1.
        let second = plan_cycle(&mut rob, 1, 9, |_| false);
        assert_eq!(second.miss_block, Some(BlockId(3)));
    }

    #[test]
    fn duplicate_requests_share_one_io() {
        let mut rob = rob_with(&[7, 7]);
        let first = plan_cycle(&mut rob, 1, 9, |_| false);
        assert_eq!(first.miss_block, Some(BlockId(7)));
        // After the fetch the block is a hit; both requests now service in
        // memory without further I/O.
        let second = plan_cycle(&mut rob, 2, 9, |id| id.0 == 7);
        assert_eq!(second.hits.len(), 2);
        assert!(second.io_is_dummy());
        assert!(rob.is_empty());
    }

    #[test]
    fn hoists_hits_from_behind_a_miss() {
        // Figure 4-2's core behaviour: H1..H3 behind M1 are grouped with
        // M1's load in one cycle.
        let mut rob = rob_with(&[9, 0, 2, 4]);
        let plan = plan_cycle(&mut rob, 3, 9, |id| id.0 % 2 == 0);
        assert_eq!(plan.miss_block, Some(BlockId(9)));
        assert_eq!(plan.hits.len(), 3);
    }
}
