//! The serving loop: accept, admit, pump, respond, drain.
//!
//! # Threading model
//!
//! Thread-per-connection on the existing
//! [`WorkerPool`] — no async runtime. One
//! **control thread** (the pool's scope body) owns the
//! [`OramService`] outright and interleaves three duties per tick:
//! accept pending connections (nonblocking), drain the job inbox into
//! the service, and pump the engine / collect results. Each accepted
//! connection runs on a pool worker that only reads: it parses frames
//! and forwards the [`Frame::Request`]s of one read to the control
//! thread as one inbox message. The control thread writes the responses
//! itself — shed verdicts and dedup replays at once, executed outcomes
//! right after the pump that resolved them, one write per connection —
//! through the connection's mutex-guarded write handle, which the worker
//! also uses for its own replies (`HelloAck`, `Pong`, `StatsReply`,
//! `DrainStarted`, `BAD_FRAME`), so frames never interleave. A write that
//! fails or outlasts the write bound (eight ticks) shuts that connection
//! down. The service never crosses a thread boundary, so the engine
//! needs no locks and the deterministic pump order is exactly the
//! in-process one.
//!
//! # Failure semantics
//!
//! Every request resolves to exactly one of:
//!
//! * **executed** — admitted to the ORAM and run to completion; the
//!   outcome (success or typed in-flight failure) is cached in the
//!   bounded idempotency window keyed by `(client_id, req_id)`, so a
//!   retry after a lost response replays the *original* outcome instead
//!   of re-executing. Once admitted, a request is never cancelled — an
//!   applied write cannot be idempotently un-applied.
//! * **shed** — refused *before* reaching the ORAM engine with a typed
//!   code (`BUSY`, `QUEUE_FULL`, `DEADLINE_EXPIRED`, `SHUTTING_DOWN`,
//!   serving-layer rejections). Shed outcomes are deliberately **not**
//!   cached: a retry must re-evaluate admission, or a transient `BUSY`
//!   would be pinned forever.
//!
//! # Drain
//!
//! When the drain flag rises (SIGTERM in `horam-serverd`, or a
//! [`Frame::Drain`]): stop accepting, shed new requests with
//! `SHUTTING_DOWN`, finish every in-flight request and deliver its
//! response, then [`OramService::checkpoint`]. The checkpoint bundles
//! the sealed engine snapshot **and** the idempotency window, so a
//! restarted server still recognizes retries of work the old process
//! executed. Because drain completes or sheds everything, no request is
//! ever half-applied at the checkpoint boundary — which is what makes
//! restart + restore + replay byte-identical to an uninterrupted run.

use crate::net::{Listener, NetStream};
use crate::status;
use crate::wire::{
    encode_frame, write_frame, Accept, Frame, FramePoll, FrameReader, PollError, ServerCounters,
};
use horam_core::access_control::UserId;
use horam_core::pool::WorkerPool;
use horam_server::service::{OramService, ServeError, ServiceTicket};
use oram_protocols::types::Request;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a freshly accepted connection gets to present its `Hello`.
const HANDSHAKE_BUDGET: Duration = Duration::from_secs(3);

/// The write bound, in ticks: one `write` to a connection whose peer has
/// left its socket buffers full gives up after this long, and the
/// connection is shut down.
const WRITE_BOUND_TICKS: u32 = 8;

/// Server tuning and lifecycle knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connection bound; excess dials get a `Busy` handshake
    /// and are dropped (typed backpressure, not unbounded buffering).
    pub max_connections: usize,
    /// Server-wide in-flight request bound; excess requests get `BUSY`.
    pub max_inflight: usize,
    /// Executed-outcome entries retained for idempotent retries.
    pub dedup_window: usize,
    /// Required `Hello` token, if any.
    pub token: Option<u64>,
    /// Process start epoch reported in every `HelloAck` (bump it on
    /// restart so clients can observe that they crossed a restart).
    pub epoch: u64,
    /// Control-loop park / connection read-timeout granularity. Every
    /// blocking wait in the server is bounded by (a small multiple of)
    /// this tick.
    pub tick: Duration,
    /// Raised by SIGTERM (see `horam-serverd`) or a [`Frame::Drain`];
    /// starts the graceful drain. Hold a clone to trigger drain
    /// externally.
    pub drain: Arc<AtomicBool>,
    /// Idempotency-window entries carried over from a previous process's
    /// [`Checkpoint`], so retries of already-executed work survive a
    /// restart.
    pub preload_window: Vec<WindowEntry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 16,
            max_inflight: 256,
            dedup_window: 1024,
            token: None,
            epoch: 0,
            tick: Duration::from_millis(1),
            drain: Arc::new(AtomicBool::new(false)),
            preload_window: Vec::new(),
        }
    }
}

/// One executed outcome in the idempotency window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowEntry {
    /// The retry-stable client identity from the `Hello`.
    pub client_id: u64,
    /// The request's idempotency key.
    pub req_id: u64,
    /// The cached response frame (always a [`Frame::Response`]).
    pub response: Frame,
}

/// What a graceful drain produces: the sealed engine snapshot plus the
/// idempotency window, serialized together so a restarted server
/// resumes with both the data *and* the memory of what it already
/// executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sealed engine state from [`OramService::checkpoint`].
    pub snapshot: Vec<u8>,
    /// Idempotency-window entries, oldest first.
    pub window: Vec<WindowEntry>,
    /// The epoch of the process that took the checkpoint.
    pub epoch: u64,
}

const CHECKPOINT_MAGIC: &[u8; 4] = b"HCKP";
const CHECKPOINT_VERSION: u32 = 1;

impl Checkpoint {
    /// Serializes the checkpoint for the restart file.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.snapshot.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.snapshot);
        out.extend_from_slice(&(self.window.len() as u32).to_le_bytes());
        for entry in &self.window {
            out.extend_from_slice(&entry.client_id.to_le_bytes());
            out.extend_from_slice(&entry.req_id.to_le_bytes());
            let frame = crate::wire::encode_frame(&entry.response);
            out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            out.extend_from_slice(&frame);
        }
        out
    }

    /// Parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation, bad magic, or an unknown version —
    /// restores fail closed, a corrupt checkpoint is never half-adopted.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        fn bad(reason: &str) -> io::Error {
            io::Error::new(io::ErrorKind::InvalidData, format!("checkpoint: {reason}"))
        }
        fn take<'a>(rest: &mut &'a [u8], n: usize) -> io::Result<&'a [u8]> {
            if n > rest.len() {
                return Err(bad("truncated"));
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Ok(head)
        }
        let mut rest = bytes;
        if take(&mut rest, 4)? != CHECKPOINT_MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u32::from_le_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(bad("unknown version"));
        }
        let epoch = u64::from_le_bytes(take(&mut rest, 8)?.try_into().expect("8 bytes"));
        let snapshot_len = u64::from_le_bytes(take(&mut rest, 8)?.try_into().expect("8 bytes"));
        let snapshot = take(
            &mut rest,
            usize::try_from(snapshot_len).unwrap_or(usize::MAX),
        )?
        .to_vec();
        let count = u32::from_le_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes")) as usize;
        // An entry is at least 25 bytes (two ids, a length, a frame's
        // 5-byte header): bound the count by what is left before
        // allocating for it.
        if count > rest.len() / 25 {
            return Err(bad("window count exceeds the file"));
        }
        let mut window = Vec::with_capacity(count);
        for _ in 0..count {
            let client_id = u64::from_le_bytes(take(&mut rest, 8)?.try_into().expect("8 bytes"));
            let req_id = u64::from_le_bytes(take(&mut rest, 8)?.try_into().expect("8 bytes"));
            let frame_len =
                u32::from_le_bytes(take(&mut rest, 4)?.try_into().expect("4 bytes")) as usize;
            let frame_bytes = take(&mut rest, frame_len)?;
            if frame_bytes.len() < 5 {
                return Err(bad("window frame too short"));
            }
            let response = crate::wire::decode_frame(frame_bytes[4], &frame_bytes[5..])
                .map_err(|e| bad(&format!("window frame: {e}")))?;
            window.push(WindowEntry {
                client_id,
                req_id,
                response,
            });
        }
        if !rest.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(Self {
            snapshot,
            window,
            epoch,
        })
    }
}

/// What [`run_server`] returns after a graceful drain.
#[derive(Debug)]
pub struct ServerOutcome {
    /// Final counter values.
    pub counters: ServerCounters,
    /// The drain checkpoint (engine snapshot + idempotency window).
    pub checkpoint: Checkpoint,
}

/// Why the server stopped other than a graceful drain.
#[derive(Debug)]
pub enum ServerError {
    /// The listener or a control-path socket failed.
    Io(io::Error),
    /// The engine failed while pumping or checkpointing.
    Serve(ServeError),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "io: {e}"),
            ServerError::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<ServeError> for ServerError {
    fn from(e: ServeError) -> Self {
        ServerError::Serve(e)
    }
}

/// One parsed request travelling from a connection thread to the
/// control thread.
struct Job {
    client_id: u64,
    tenant: u32,
    req_id: u64,
    /// Absolute shed point, stamped at arrival on the connection thread
    /// from the request's relative budget.
    deadline_at: Option<Instant>,
    block: u64,
    payload: Option<Vec<u8>>,
    reply: Outbox,
}

/// The write half of one accepted connection. Its worker writes its own
/// replies through it and the control thread writes request outcomes,
/// each one `write_all` under the lock, so frames never interleave.
type Outbox = Arc<Mutex<Box<dyn NetStream>>>;

/// Writes already-encoded frames to a connection in one `write_all`. A
/// write that fails or outlasts the write bound shuts the connection
/// down; whatever it executed is in the idempotency window, so the
/// client's retry replays it.
fn send(outbox: &Outbox, bytes: &[u8]) -> io::Result<()> {
    let mut stream = outbox.lock().map_err(|poisoned| {
        // A writer panicked mid-frame and left the stream misaligned.
        let _ = poisoned.into_inner().shutdown_both();
        io::Error::other("connection writer panicked")
    })?;
    let written = stream.write_all(bytes);
    if written.is_err() {
        let _ = stream.shutdown_both();
    }
    written
}

/// [`send`] for one frame.
fn reply(outbox: &Outbox, frame: &Frame) -> io::Result<()> {
    send(outbox, &encode_frame(frame))
}

/// Atomic counter block shared by the control thread and connections.
#[derive(Default)]
struct Counters {
    served: AtomicU64,
    shed_deadline: AtomicU64,
    busy_rejects: AtomicU64,
    queue_full_rejects: AtomicU64,
    dedup_hits: AtomicU64,
    shed_draining: AtomicU64,
    connections: AtomicU64,
}

impl Counters {
    fn snapshot(&self, draining: bool) -> ServerCounters {
        ServerCounters {
            served: self.served.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            busy_rejects: self.busy_rejects.load(Ordering::Relaxed),
            queue_full_rejects: self.queue_full_rejects.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            shed_draining: self.shed_draining.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            draining,
        }
    }
}

/// Immutable context handed to every connection thread.
struct ConnShared {
    inbox: mpsc::Sender<Vec<Job>>,
    counters: Arc<Counters>,
    draining: Arc<AtomicBool>,
    stopped: Arc<AtomicBool>,
    token: Option<u64>,
    epoch: u64,
    tick: Duration,
}

/// Control-thread bookkeeping for one admitted request.
struct Inflight {
    client_id: u64,
    req_id: u64,
    reply: Outbox,
}

/// Bounded idempotency window of executed outcomes.
struct DedupWindow {
    entries: HashMap<(u64, u64), Frame>,
    order: VecDeque<(u64, u64)>,
    cap: usize,
}

impl DedupWindow {
    fn new(cap: usize, preload: Vec<WindowEntry>) -> Self {
        let mut window = Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        };
        for entry in preload {
            window.insert(entry.client_id, entry.req_id, entry.response);
        }
        window
    }

    fn get(&self, client_id: u64, req_id: u64) -> Option<&Frame> {
        self.entries.get(&(client_id, req_id))
    }

    fn insert(&mut self, client_id: u64, req_id: u64, response: Frame) {
        let key = (client_id, req_id);
        if self.entries.insert(key, response).is_none() {
            self.order.push_back(key);
        }
        while self.order.len() > self.cap {
            if let Some(old) = self.order.pop_front() {
                self.entries.remove(&old);
            }
        }
    }

    fn to_entries(&self) -> Vec<WindowEntry> {
        self.order
            .iter()
            .filter_map(|key| {
                self.entries.get(key).map(|response| WindowEntry {
                    client_id: key.0,
                    req_id: key.1,
                    response: response.clone(),
                })
            })
            .collect()
    }
}

/// Runs the server until a graceful drain completes, then returns the
/// drain checkpoint. The service is borrowed, not consumed — after a
/// drain the caller still owns the (now idle) service, which is what
/// the drain-equivalence tests exploit.
///
/// Every blocking wait inside — accept, connection reads, the control
/// loop park — is bounded by `config.tick` (or the handshake budget),
/// so a vanished client or a lost frame can never wedge the server.
///
/// # Errors
///
/// [`ServerError::Io`] if the listener fails, [`ServerError::Serve`] if
/// the engine fails while pumping or taking the drain checkpoint.
pub fn run_server(
    service: &mut OramService,
    listener: &Listener,
    config: &ServerConfig,
) -> Result<ServerOutcome, ServerError> {
    let counters = Arc::new(Counters::default());
    let draining = Arc::clone(&config.drain);
    let stopped = Arc::new(AtomicBool::new(false));
    let active = Arc::new(AtomicUsize::new(0));
    let (inbox_tx, inbox_rx) = mpsc::channel::<Vec<Job>>();

    // Workers cover every concurrent connection; the control loop is the
    // scope body and does not help until the final barrier.
    let pool = WorkerPool::new(config.max_connections.max(1) + 1);
    pool.scope(|scope| {
        let run = (|| -> Result<ServerOutcome, ServerError> {
            let mut window = DedupWindow::new(config.dedup_window, config.preload_window.clone());
            let mut inflight: HashMap<ServiceTicket, Inflight> = HashMap::new();
            let mut inflight_by_key: HashMap<(u64, u64), ServiceTicket> = HashMap::new();

            loop {
                // 1. Accept pending dials (stops once draining).
                if !draining.load(Ordering::Acquire) {
                    let write_bound = config.tick * WRITE_BOUND_TICKS;
                    while let Some((stream, mut writer)) = listener.try_accept(write_bound)? {
                        counters.connections.fetch_add(1, Ordering::Relaxed);
                        if active.load(Ordering::Acquire) >= config.max_connections {
                            // Typed backpressure at the door: say Busy,
                            // hang up. Best-effort — the client also
                            // handles a plain disconnect.
                            counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
                            let _ = write_frame(
                                &mut writer,
                                &Frame::HelloAck {
                                    accept: Accept::Busy,
                                    epoch: config.epoch,
                                },
                            );
                            let _ = stream.shutdown_both();
                            continue;
                        }
                        active.fetch_add(1, Ordering::AcqRel);
                        let shared = ConnShared {
                            inbox: inbox_tx.clone(),
                            counters: Arc::clone(&counters),
                            draining: Arc::clone(&draining),
                            stopped: Arc::clone(&stopped),
                            token: config.token,
                            epoch: config.epoch,
                            tick: config.tick,
                        };
                        let active = Arc::clone(&active);
                        scope.spawn(move || {
                            handle_conn(stream, Arc::new(Mutex::new(writer)), &shared);
                            active.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                }

                // Drain completes on the pass that starts with everything
                // admitted resolved: it sheds what is left in the inbox
                // (admission sheds while draining) and checkpoints.
                let finishing = draining.load(Ordering::Acquire) && inflight.is_empty();

                // 2. Drain the inbox into the engine. With nothing in
                // flight, park on it for up to a tick first, so an idle
                // loop does not spin and a burst is admitted as it lands.
                let mut parked = if inflight.is_empty() {
                    inbox_rx.recv_timeout(config.tick).ok()
                } else {
                    None
                };
                while let Some(jobs) = parked.take().or_else(|| inbox_rx.try_recv().ok()) {
                    for job in jobs {
                        admit_job(
                            service,
                            job,
                            &counters,
                            &draining,
                            &mut window,
                            &mut inflight,
                            &mut inflight_by_key,
                            config.max_inflight,
                        );
                    }
                }

                // 3. Pump and write what resolved.
                if !inflight.is_empty() {
                    service.pump()?;
                    collect_resolved(
                        service,
                        &counters,
                        &mut window,
                        &mut inflight,
                        &mut inflight_by_key,
                    );
                }

                // 4. Drain completion.
                if finishing {
                    let snapshot = service.checkpoint()?;
                    return Ok(ServerOutcome {
                        counters: counters.snapshot(true),
                        checkpoint: Checkpoint {
                            snapshot,
                            window: window.to_entries(),
                            epoch: config.epoch,
                        },
                    });
                }
            }
        })();
        // Whatever the exit path, release the connection threads before
        // the scope barrier, or the barrier would never clear.
        stopped.store(true, Ordering::Release);
        run
    })
}

/// Admission on the control thread: dedup → drain → deadline → busy →
/// submit. Everything shed here never touches the ORAM engine.
#[allow(clippy::too_many_arguments)]
fn admit_job(
    service: &mut OramService,
    job: Job,
    counters: &Counters,
    draining: &AtomicBool,
    window: &mut DedupWindow,
    inflight: &mut HashMap<ServiceTicket, Inflight>,
    inflight_by_key: &mut HashMap<(u64, u64), ServiceTicket>,
    max_inflight: usize,
) {
    let key = (job.client_id, job.req_id);

    // An already-executed outcome answers the retry verbatim — this is
    // what makes retried writes safe (the original previous-bytes come
    // back; nothing re-executes).
    if let Some(cached) = window.get(key.0, key.1) {
        counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
        let _ = reply(&job.reply, cached);
        return;
    }

    // A retry of a request still executing re-attaches the (possibly
    // redialed) connection to the in-flight entry instead of
    // resubmitting.
    if let Some(&ticket) = inflight_by_key.get(&key) {
        counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(meta) = inflight.get_mut(&ticket) {
            meta.reply = job.reply;
        }
        return;
    }

    // Everything shed below is answered at once, typed, and not cached:
    // a retry re-evaluates admission.
    let shed = if draining.load(Ordering::Acquire) {
        counters.shed_draining.fetch_add(1, Ordering::Relaxed);
        status::transport_error_response(
            job.req_id,
            status::SHUTTING_DOWN,
            "server draining; request not executed, safe to replay".into(),
        )
    } else if job.deadline_at.is_some_and(|at| Instant::now() >= at) {
        // Deadline shedding happens before the engine ever sees the work.
        counters.shed_deadline.fetch_add(1, Ordering::Relaxed);
        status::transport_error_response(
            job.req_id,
            status::DEADLINE_EXPIRED,
            "deadline budget spent before admission; not executed".into(),
        )
    } else if inflight.len() >= max_inflight {
        counters.busy_rejects.fetch_add(1, Ordering::Relaxed);
        status::transport_error_response(
            job.req_id,
            status::BUSY,
            format!("server at its in-flight bound ({max_inflight}); retry after backoff"),
        )
    } else {
        let request = match job.payload {
            Some(payload) => Request::write(job.block, payload),
            None => Request::read(job.block),
        };
        match service.submit(UserId(job.tenant), request) {
            Ok(ticket) => {
                inflight.insert(
                    ticket,
                    Inflight {
                        client_id: job.client_id,
                        req_id: job.req_id,
                        reply: job.reply,
                    },
                );
                inflight_by_key.insert(key, ticket);
                return;
            }
            Err(error) => {
                if matches!(error, ServeError::QueueFull { .. }) {
                    counters.queue_full_rejects.fetch_add(1, Ordering::Relaxed);
                }
                status::serve_error_response(job.req_id, &error)
            }
        }
    };
    let _ = reply(&job.reply, &shed);
}

/// Harvests every resolved ticket, caches the executed outcome in the
/// idempotency window, and writes each connection's share of the harvest
/// in one `write_all` (best-effort — a vanished client collects it from
/// the window on retry).
fn collect_resolved(
    service: &mut OramService,
    counters: &Counters,
    window: &mut DedupWindow,
    inflight: &mut HashMap<ServiceTicket, Inflight>,
    inflight_by_key: &mut HashMap<(u64, u64), ServiceTicket>,
) {
    let mut outgoing: Vec<(Outbox, Vec<u8>)> = Vec::new();
    let tickets: Vec<ServiceTicket> = inflight.keys().copied().collect();
    for ticket in tickets {
        let Some(result) = service.take_result(ticket) else {
            continue;
        };
        let Some(meta) = inflight.remove(&ticket) else {
            continue;
        };
        inflight_by_key.remove(&(meta.client_id, meta.req_id));
        let frame = match result {
            Ok(payload) => Frame::Response {
                req_id: meta.req_id,
                status: status::OK,
                shard: 0,
                message: String::new(),
                payload,
            },
            Err(error) => status::serve_error_response(meta.req_id, &error),
        };
        counters.served.fetch_add(1, Ordering::Relaxed);
        let bytes = encode_frame(&frame);
        window.insert(meta.client_id, meta.req_id, frame);
        match outgoing
            .iter_mut()
            .find(|(to, _)| Arc::ptr_eq(to, &meta.reply))
        {
            Some((_, buf)) => buf.extend_from_slice(&bytes),
            None => outgoing.push((meta.reply, bytes)),
        }
    }
    for (outbox, bytes) in &outgoing {
        let _ = send(outbox, bytes);
    }
}

/// One connection's lifecycle on a pool worker: handshake, then a
/// bounded-poll loop forwarding each read's requests inward as one inbox
/// message. The worker only reads; everything it says goes through
/// `outbox`. Never blocks unboundedly; exits on peer close, poisoned
/// stream, handshake timeout, or server stop.
fn handle_conn(mut stream: Box<dyn NetStream>, outbox: Outbox, shared: &ConnShared) {
    if stream.set_read_timeout(Some(shared.tick)).is_err() {
        return;
    }
    let mut reader = FrameReader::new();
    let ack = |accept| Frame::HelloAck {
        accept,
        epoch: shared.epoch,
    };

    // Handshake: the peer gets a bounded budget to present its Hello.
    let started = Instant::now();
    let (client_id, tenant) = loop {
        if shared.stopped.load(Ordering::Acquire) || started.elapsed() > HANDSHAKE_BUDGET {
            return;
        }
        match reader.poll(&mut stream) {
            Ok(FramePoll::Frame(Frame::Hello {
                client_id,
                tenant,
                token,
            })) => {
                let refusal = if shared.token.is_some_and(|expected| expected != token) {
                    Some(Accept::AuthFailed)
                } else if shared.draining.load(Ordering::Acquire) {
                    Some(Accept::Draining)
                } else {
                    None
                };
                if let Some(accept) = refusal {
                    let _ = reply(&outbox, &ack(accept));
                    let _ = stream.shutdown_both();
                    return;
                }
                break (client_id, tenant);
            }
            // Anything else before the handshake is a protocol violation.
            Ok(FramePoll::Frame(_)) | Ok(FramePoll::Closed) | Err(_) => return,
            Ok(FramePoll::Pending) => {}
        }
    };
    if reply(&outbox, &ack(Accept::Ok)).is_err() {
        return;
    }

    loop {
        if shared.stopped.load(Ordering::Acquire) {
            // The control thread wrote every drain response before
            // raising `stopped`.
            let _ = stream.shutdown_both();
            return;
        }
        let mut next = match reader.poll(&mut stream) {
            Ok(FramePoll::Frame(frame)) => Ok(Some(frame)),
            Ok(FramePoll::Pending) => continue,
            Ok(FramePoll::Closed) | Err(PollError::Io(_)) => return,
            Err(PollError::Wire(error)) => Err(error),
        };
        // Every frame that arrived with this read; its requests reach the
        // control thread together, so a pipelined burst is admitted in
        // one pump.
        let mut jobs = Vec::new();
        let open = loop {
            let written = match next {
                Ok(None) => break true,
                Ok(Some(Frame::Request {
                    req_id,
                    deadline_nanos,
                    block,
                    payload,
                })) => {
                    jobs.push(Job {
                        client_id,
                        tenant,
                        req_id,
                        deadline_at: (deadline_nanos > 0)
                            .then(|| Instant::now() + Duration::from_nanos(deadline_nanos)),
                        block,
                        payload,
                        reply: Arc::clone(&outbox),
                    });
                    Ok(())
                }
                Ok(Some(Frame::Ping { nonce })) => reply(&outbox, &Frame::Pong { nonce }),
                Ok(Some(Frame::Stats)) => {
                    let draining = shared.draining.load(Ordering::Acquire);
                    reply(
                        &outbox,
                        &Frame::StatsReply(shared.counters.snapshot(draining)),
                    )
                }
                Ok(Some(Frame::Drain)) => {
                    shared.draining.store(true, Ordering::Release);
                    reply(&outbox, &Frame::DrainStarted)
                }
                // A second Hello or any server-to-client frame from a
                // client is a protocol violation; poison the connection.
                Ok(Some(_)) => {
                    let _ = stream.shutdown_both();
                    break false;
                }
                Err(error) => {
                    // Undecodable bytes: there is no resynchronizing a
                    // length-prefixed stream, so report and hang up.
                    let frame =
                        status::transport_error_response(0, status::BAD_FRAME, error.to_string());
                    let _ = reply(&outbox, &frame);
                    let _ = stream.shutdown_both();
                    break false;
                }
            };
            if written.is_err() {
                break false;
            }
            next = reader.next_buffered();
        };
        // The receiver outlives every connection worker (the pool scope
        // joins them first), so this send cannot fail.
        if !jobs.is_empty() {
            let _ = shared.inbox.send(jobs);
        }
        if !open {
            return;
        }
    }
}

/// Raised by the process signal handler; bridged onto drain flags by
/// [`bind_signals_to_drain`]. Process-global because `signal(2)`
/// handlers cannot carry state.
static TERM: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that raise the given drain flag,
/// turning either signal into a graceful drain-and-checkpoint.
///
/// The handler itself is async-signal-safe (it only stores to a static
/// atomic); a small watcher thread bridges that static onto the
/// caller's `drain` flag. Installation uses `signal(2)` directly so the
/// dependency set stays std-only. Calling this more than once is
/// harmless — the last registered drain flag (and every earlier one,
/// via its own watcher) is raised on the first signal.
pub fn bind_signals_to_drain(drain: Arc<AtomicBool>) {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
    thread::spawn(move || loop {
        if TERM.load(Ordering::Acquire) {
            drain.store(true, Ordering::Release);
            return;
        }
        thread::sleep(Duration::from_millis(20));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, RpcClient};
    use crate::net::Endpoint;
    use crate::status as st;
    use horam_core::access_control::Permission;
    use horam_core::{HOramConfig, ShardedConfig, ShardedOram};
    use horam_server::{FifoPolicy, ServiceConfig};
    use oram_crypto::keys::MasterKey;
    use oram_storage::hierarchy::MemoryHierarchy;
    use std::net::TcpStream;

    #[test]
    fn checkpoint_roundtrips() {
        let checkpoint = Checkpoint {
            snapshot: vec![7u8; 129],
            window: vec![
                WindowEntry {
                    client_id: 1,
                    req_id: 9,
                    response: Frame::Response {
                        req_id: 9,
                        status: st::OK,
                        shard: 0,
                        message: String::new(),
                        payload: vec![1, 2, 3],
                    },
                },
                WindowEntry {
                    client_id: 2,
                    req_id: 4,
                    response: st::transport_error_response(4, st::DEADLINE_EXPIRED, "late".into()),
                },
            ],
            epoch: 3,
        };
        let bytes = checkpoint.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).expect("parses"), checkpoint);
    }

    #[test]
    fn checkpoint_rejects_corruption() {
        let checkpoint = Checkpoint {
            snapshot: vec![1, 2, 3],
            window: vec![WindowEntry {
                client_id: 1,
                req_id: 2,
                response: Frame::Response {
                    req_id: 2,
                    status: st::OK,
                    shard: 0,
                    message: String::new(),
                    payload: vec![9],
                },
            }],
            epoch: 0,
        };
        let bytes = checkpoint.to_bytes();
        // Truncations at every boundary fail closed.
        for cut in 0..bytes.len() {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Checkpoint::from_bytes(&bad).is_err());
        // Length fields at their maximum: typed errors, never an
        // allocation sized by the file. Layout: magic 0..4, version 4..8,
        // epoch 8..16, snapshot_len 16..24, snapshot 24..27, count 27..31,
        // then the entry's two ids 31..47 and its frame_len 47..51.
        for (field, at, width) in [
            ("snapshot_len", 16, 8),
            ("count", 27, 4),
            ("frame_len", 47, 4),
        ] {
            let mut bad = bytes.clone();
            bad[at..at + width].fill(0xFF);
            let error = Checkpoint::from_bytes(&bad).expect_err(field);
            assert_eq!(error.kind(), io::ErrorKind::InvalidData, "{field}");
        }
        // Trailing garbage.
        let mut long = bytes;
        long.push(0);
        assert!(Checkpoint::from_bytes(&long).is_err());
    }

    #[test]
    fn dedup_window_caps_and_evicts_fifo() {
        let mut window = DedupWindow::new(2, Vec::new());
        let frame = |id: u64| Frame::Response {
            req_id: id,
            status: st::OK,
            shard: 0,
            message: String::new(),
            payload: Vec::new(),
        };
        window.insert(1, 1, frame(1));
        window.insert(1, 2, frame(2));
        window.insert(1, 3, frame(3));
        assert!(window.get(1, 1).is_none(), "oldest entry evicted");
        assert!(window.get(1, 2).is_some());
        assert!(window.get(1, 3).is_some());
        // Re-inserting an existing key does not double-count capacity.
        window.insert(1, 3, frame(3));
        assert_eq!(window.to_entries().len(), 2);
    }

    /// An in-memory connection: each `read` serves the next scripted
    /// chunk (then EOF), and each `write` call is recorded whole.
    #[derive(Default)]
    struct Scripted {
        chunks: VecDeque<Vec<u8>>,
        writes: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl io::Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    impl io::Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl NetStream for Scripted {
        fn set_read_timeout(&self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn shutdown_both(&self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A one-tenant engine over blocks `0..64` of `payload_len` bytes.
    fn test_service(payload_len: usize) -> OramService {
        let oram = ShardedOram::new(
            ShardedConfig::new(HOramConfig::new(64, payload_len, 16).with_seed(1), 1),
            MasterKey::from_bytes([5; 32]),
            |_| MemoryHierarchy::dac2019(),
        )
        .expect("engine builds");
        let mut service = OramService::new(oram, Box::new(FifoPolicy), ServiceConfig::default());
        service.register_tenant(UserId(0), 0..64, Permission::ReadWrite);
        service
    }

    /// Decodes a byte string of whole frames.
    fn decode_all(mut bytes: &[u8]) -> Vec<Frame> {
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        loop {
            match reader.poll(&mut bytes).expect("whole frames") {
                FramePoll::Frame(frame) => frames.push(frame),
                FramePoll::Closed => return frames,
                FramePoll::Pending => {}
            }
        }
    }

    /// One harvest that resolves N requests of one connection reaches it
    /// as exactly one write carrying all N responses.
    #[test]
    fn one_harvest_is_one_write_per_connection() {
        const N: u64 = 16;
        let mut service = test_service(8);
        let writes = Arc::new(Mutex::new(Vec::new()));
        let outbox: Outbox = Arc::new(Mutex::new(Box::new(Scripted {
            writes: Arc::clone(&writes),
            ..Scripted::default()
        })));
        let counters = Counters::default();
        let mut window = DedupWindow::new(64, Vec::new());
        let mut inflight = HashMap::new();
        let mut inflight_by_key = HashMap::new();
        for req_id in 1..=N {
            let job = Job {
                client_id: 1,
                tenant: 0,
                req_id,
                deadline_at: None,
                block: req_id,
                payload: Some(vec![req_id as u8; 8]),
                reply: Arc::clone(&outbox),
            };
            let draining = AtomicBool::new(false);
            admit_job(
                &mut service,
                job,
                &counters,
                &draining,
                &mut window,
                &mut inflight,
                &mut inflight_by_key,
                256,
            );
        }
        assert!(writes.lock().unwrap().is_empty(), "admission wrote nothing");

        service.pump().expect("pump");
        collect_resolved(
            &mut service,
            &counters,
            &mut window,
            &mut inflight,
            &mut inflight_by_key,
        );
        assert!(inflight.is_empty(), "one pump resolves a batch this small");
        let writes = writes.lock().unwrap();
        assert_eq!(writes.len(), 1, "one write for the whole harvest");
        let mut answered: Vec<u64> = decode_all(&writes[0])
            .into_iter()
            .map(|frame| match frame {
                Frame::Response {
                    req_id,
                    status: st::OK,
                    ..
                } => req_id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        answered.sort_unstable();
        assert_eq!(answered, (1..=N).collect::<Vec<_>>());
    }

    /// Every request parsed from one read reaches the control thread as
    /// one inbox message; a control frame in the same read is answered by
    /// the connection worker.
    #[test]
    fn one_read_is_one_inbox_message() {
        const N: u64 = 16;
        let mut burst = Vec::new();
        for req_id in 1..=N {
            burst.extend(encode_frame(&Frame::Request {
                req_id,
                deadline_nanos: 0,
                block: req_id,
                payload: None,
            }));
        }
        burst.extend(encode_frame(&Frame::Ping { nonce: 7 }));
        let hello = encode_frame(&Frame::Hello {
            client_id: 9,
            tenant: 0,
            token: 0,
        });
        let stream = Scripted {
            chunks: VecDeque::from([hello, burst]),
            ..Scripted::default()
        };
        let writes = Arc::new(Mutex::new(Vec::new()));
        let outbox: Outbox = Arc::new(Mutex::new(Box::new(Scripted {
            writes: Arc::clone(&writes),
            ..Scripted::default()
        })));
        let (inbox, inbox_rx) = mpsc::channel();
        let shared = ConnShared {
            inbox,
            counters: Arc::default(),
            draining: Arc::default(),
            stopped: Arc::default(),
            token: None,
            epoch: 0,
            tick: Duration::from_millis(1),
        };
        // Returns at the scripted EOF.
        handle_conn(Box::new(stream), outbox, &shared);

        let messages: Vec<Vec<Job>> = inbox_rx.try_iter().collect();
        assert_eq!(messages.len(), 1, "one read, one inbox message");
        let forwarded: Vec<u64> = messages[0].iter().map(|job| job.req_id).collect();
        assert_eq!(forwarded, (1..=N).collect::<Vec<_>>());
        let replies: Vec<Frame> = writes
            .lock()
            .unwrap()
            .iter()
            .flat_map(|bytes| decode_all(bytes))
            .collect();
        assert!(
            matches!(
                replies.as_slice(),
                [
                    Frame::HelloAck {
                        accept: Accept::Ok,
                        ..
                    },
                    Frame::Pong { nonce: 7 }
                ]
            ),
            "{replies:?}"
        );
    }

    /// Reads one frame from a raw socket within ten seconds.
    fn read_frame(stream: &mut TcpStream, reader: &mut FrameReader) -> Frame {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reader.poll(stream).expect("live stream") {
                FramePoll::Frame(frame) => return frame,
                FramePoll::Pending => assert!(Instant::now() < deadline, "no frame within 10 s"),
                FramePoll::Closed => panic!("closed before a frame"),
            }
        }
    }

    /// A peer that pipelines requests and never reads the responses fills
    /// its socket. The control thread's write gives up after the write
    /// bound and closes that connection; another client is served within
    /// its deadline; a redial's retry is answered from the window without
    /// executing again.
    #[test]
    fn a_peer_that_stops_reading_cannot_stall_the_server() {
        const PAYLOAD: usize = 4096;
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into())).expect("bind");
        let endpoint = listener.local_endpoint().expect("bound endpoint");
        let config = ServerConfig::default();
        let drain = Arc::clone(&config.drain);
        let server = thread::spawn(move || {
            let mut service = test_service(PAYLOAD);
            run_server(&mut service, &listener, &config).expect("graceful drain")
        });
        let Endpoint::Tcp(addr) = &endpoint else {
            unreachable!("bound a tcp endpoint")
        };

        // The stalled peer executes one read, then resends it 16 384
        // times without reading again: each resend is answered from the
        // window with 4 KiB, 64 MiB in all — far past the socket buffers.
        let mut stalled = TcpStream::connect(addr.as_str()).expect("connect");
        stalled
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        stalled
            .set_write_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let mut reader = FrameReader::new();
        let hello = Frame::Hello {
            client_id: 1,
            tenant: 0,
            token: 0,
        };
        stalled.write_all(&encode_frame(&hello)).unwrap();
        let ack = read_frame(&mut stalled, &mut reader);
        assert!(
            matches!(
                ack,
                Frame::HelloAck {
                    accept: Accept::Ok,
                    ..
                }
            ),
            "{ack:?}"
        );
        let request = encode_frame(&Frame::Request {
            req_id: 1,
            deadline_nanos: 0,
            block: 3,
            payload: None,
        });
        stalled.write_all(&request).unwrap();
        let first = read_frame(&mut stalled, &mut reader);
        assert!(
            matches!(
                first,
                Frame::Response {
                    req_id: 1,
                    status: st::OK,
                    ..
                }
            ),
            "{first:?}"
        );
        let burst = request.repeat(256);
        for _ in 0..64 {
            // Fails once the server has closed the connection.
            if stalled.write_all(&burst).is_err() {
                break;
            }
        }

        // Another client is served within its deadline.
        let mut config = ClientConfig::new(endpoint.clone(), 2, 0);
        config.call_deadline = Duration::from_secs(5);
        let mut other = RpcClient::new(config);
        let ops: Vec<(u64, Option<Vec<u8>>)> = (10..26)
            .map(|block| (block, Some(vec![block as u8; PAYLOAD])))
            .collect();
        for result in other.call_many(ops).expect("served within the deadline") {
            result.expect("write lands");
        }

        // The stalled connection was closed: draining what it buffered
        // ends in EOF or a reset, not in an open, silent socket.
        let deadline = Instant::now() + Duration::from_secs(10);
        while let Ok(FramePoll::Frame(_) | FramePoll::Pending) = reader.poll(&mut stalled) {
            assert!(
                Instant::now() < deadline,
                "the stalled connection is still open"
            );
        }

        // A redial with the same client id sends req_id 1 again: a
        // window hit, not a second execution.
        let before = other.server_stats().expect("stats");
        let mut redial = RpcClient::new(ClientConfig::new(endpoint.clone(), 1, 0));
        assert_eq!(redial.read(3).expect("replayed"), vec![0u8; PAYLOAD]);
        let after = other.server_stats().expect("stats");
        assert!(
            after.dedup_hits > before.dedup_hits,
            "answered from the window"
        );
        assert_eq!(after.served, before.served, "not executed again");

        drain.store(true, Ordering::Release);
        let outcome = server.join().expect("server thread");
        assert_eq!(
            outcome.counters.served,
            1 + 16,
            "each request executed once"
        );
    }
}
