//! The request admission queue shared by [`HOram`](crate::horam::HOram)
//! and the serving layer.
//!
//! [`RequestQueue`] is the single front door through which application
//! requests reach the secure scheduler: it validates requests against the
//! instance geometry (so malformed requests can never produce observable
//! accesses), assigns the stable tickets that order responses, owns the
//! ROB the scheduler plans cycles over, and buffers completed responses
//! until their tickets are collected.
//!
//! `HOram::enqueue`/`drain`/`run_batch` are thin wrappers over this type,
//! and the `horam-server` crate's `OramService` drives the same machinery
//! ticket-by-ticket to multiplex many tenants onto one instance — both
//! callers see identical semantics because both go through this queue.

use crate::rob::RobTable;
use crate::scheduler::{plan_cycle, CyclePlan};
use oram_protocols::error::OramError;
use oram_protocols::types::{BlockId, Request, RequestOp};
use std::collections::HashMap;

/// Checks a request against a `capacity`-block geometry whose writes carry
/// `payload_len` bytes, without queueing it.
///
/// # Errors
///
/// [`OramError::BlockOutOfRange`] for ids beyond the capacity and
/// [`OramError::PayloadSize`] for mis-sized write payloads.
pub fn validate(request: &Request, capacity: u64, payload_len: usize) -> Result<(), OramError> {
    if request.id.0 >= capacity {
        return Err(OramError::BlockOutOfRange {
            id: request.id.0,
            capacity,
        });
    }
    if let RequestOp::Write(payload) = &request.op {
        if payload.len() != payload_len {
            return Err(OramError::PayloadSize {
                expected: payload_len,
                got: payload.len(),
            });
        }
    }
    Ok(())
}

/// Smallest serialized buffered response: its ticket and a length prefix.
const MIN_RESPONSE_BYTES: usize = 8 + 8;

/// Validated admission queue + response buffer in front of the ROB.
///
/// See the [module docs](self) for where this sits in the system.
#[derive(Debug, Default)]
pub struct RequestQueue {
    rob: RobTable,
    responses: HashMap<u64, Vec<u8>>,
    capacity: u64,
    payload_len: usize,
    submitted: u64,
    completed: u64,
}

impl RequestQueue {
    /// Creates a queue validating against the given geometry.
    pub fn new(capacity: u64, payload_len: usize) -> Self {
        Self {
            rob: RobTable::new(),
            responses: HashMap::new(),
            capacity,
            payload_len,
            submitted: 0,
            completed: 0,
        }
    }

    /// The block-id capacity requests are validated against.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The exact payload length write requests must carry.
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Validates and queues a request, returning the ticket that will
    /// collect its response.
    ///
    /// # Errors
    ///
    /// As [`validate`] — invalid requests never reach the ROB, so they
    /// cannot generate observable accesses.
    pub fn submit(&mut self, request: Request) -> Result<u64, OramError> {
        validate(&request, self.capacity, self.payload_len)?;
        self.submitted += 1;
        Ok(self.rob.push(request))
    }

    /// Number of requests queued and not yet serviced.
    pub fn pending(&self) -> usize {
        self.rob.len()
    }

    /// Whether every queued request has been serviced.
    pub fn is_drained(&self) -> bool {
        self.rob.is_empty()
    }

    /// Total requests ever submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total requests serviced (responses produced, collected or not).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Plans one scheduling cycle over the queue's ROB (see
    /// [`plan_cycle`]).
    pub fn plan(&mut self, c: u32, d: usize, is_hit: impl FnMut(BlockId) -> bool) -> CyclePlan {
        plan_cycle(&mut self.rob, c, d, is_hit)
    }

    /// Records the response for a serviced ticket.
    pub fn complete(&mut self, ticket: u64, data: Vec<u8>) {
        self.completed += 1;
        self.responses.insert(ticket, data);
    }

    /// Whether `ticket`'s response is buffered and ready to take.
    pub fn response_ready(&self, ticket: u64) -> bool {
        self.responses.contains_key(&ticket)
    }

    /// Whether `ticket` was ever handed out by [`submit`](Self::submit).
    pub fn issued(&self, ticket: u64) -> bool {
        ticket < self.rob.next_ticket()
    }

    /// Removes and returns the response for `ticket`, if ready.
    pub fn take_response(&mut self, ticket: u64) -> Option<Vec<u8>> {
        self.responses.remove(&ticket)
    }

    /// Clears every in-flight I/O flag in the ROB (see
    /// [`RobTable::clear_io_issued`]); called when a shuffle period voids
    /// outstanding loads.
    pub fn void_in_flight_io(&mut self) {
        self.rob.clear_io_issued();
    }

    /// Serializes the queue's durable state: ticket counter, submission
    /// counters, and any completed-but-uncollected responses. Requires a
    /// drained ROB (snapshots are taken between batches).
    ///
    /// # Panics
    ///
    /// Panics if requests are still queued — the engines guard this with
    /// a proper error before calling.
    pub fn save_state(&self, w: &mut oram_crypto::persist::StateWriter) {
        assert!(self.is_drained(), "snapshot of a non-drained queue");
        w.put_u64(self.capacity);
        w.put_usize(self.payload_len);
        w.put_u64(self.rob.next_ticket());
        w.put_u64(self.submitted);
        w.put_u64(self.completed);
        // Deterministic order for byte-stable snapshots.
        let mut responses: Vec<(u64, &Vec<u8>)> =
            self.responses.iter().map(|(t, r)| (*t, r)).collect();
        responses.sort_unstable_by_key(|(t, _)| *t);
        w.put_usize(responses.len());
        for (ticket, response) in responses {
            w.put_u64(ticket);
            w.put_bytes(response);
        }
    }

    /// Restores state captured by [`save_state`](Self::save_state).
    ///
    /// # Errors
    ///
    /// [`OramError::SnapshotInvalid`] on geometry mismatch or malformed
    /// state.
    pub fn load_state(
        &mut self,
        r: &mut oram_crypto::persist::StateReader<'_>,
    ) -> Result<(), OramError> {
        let capacity = r.get_u64()?;
        let payload_len = r.get_usize()?;
        if capacity != self.capacity || payload_len != self.payload_len {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "queue geometry mismatch: snapshot {capacity}×{payload_len}B, \
                     instance {}×{}B",
                    self.capacity, self.payload_len
                ),
            });
        }
        let next_ticket = r.get_u64()?;
        let submitted = r.get_u64()?;
        let completed = r.get_u64()?;
        let count = r.get_count(MIN_RESPONSE_BYTES)?;
        let mut responses = HashMap::with_capacity(count);
        for _ in 0..count {
            let ticket = r.get_u64()?;
            let response = r.get_bytes()?.to_vec();
            responses.insert(ticket, response);
        }
        self.rob.restore_next_ticket(next_ticket);
        self.submitted = submitted;
        self.completed = completed;
        self.responses = responses;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_validates_geometry() {
        let mut queue = RequestQueue::new(16, 4);
        assert!(matches!(
            queue.submit(Request::read(99u64)),
            Err(OramError::BlockOutOfRange {
                id: 99,
                capacity: 16
            })
        ));
        assert!(matches!(
            queue.submit(Request::write(1u64, vec![0; 3])),
            Err(OramError::PayloadSize {
                expected: 4,
                got: 3
            })
        ));
        assert_eq!(queue.pending(), 0, "invalid requests never reach the ROB");
        assert_eq!(queue.submitted(), 0);
    }

    #[test]
    fn tickets_collect_out_of_order() {
        let mut queue = RequestQueue::new(16, 4);
        let a = queue.submit(Request::read(1u64)).unwrap();
        let b = queue.submit(Request::read(2u64)).unwrap();
        queue.complete(b, vec![2]);
        queue.complete(a, vec![1]);
        assert!(queue.response_ready(a));
        assert!(queue.issued(b) && !queue.issued(b + 1));
        assert_eq!(queue.take_response(b), Some(vec![2]));
        assert_eq!(queue.take_response(a), Some(vec![1]));
        assert_eq!(queue.take_response(a), None, "responses are taken once");
        assert_eq!(queue.completed(), 2);
    }

    #[test]
    fn plan_services_the_rob() {
        let mut queue = RequestQueue::new(16, 4);
        queue.submit(Request::read(1u64)).unwrap();
        queue.submit(Request::read(2u64)).unwrap();
        let plan = queue.plan(2, 4, |_| true);
        assert_eq!(plan.hits.len(), 2);
        assert!(queue.is_drained());
    }
}
