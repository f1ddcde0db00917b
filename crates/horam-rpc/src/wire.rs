//! The length-prefixed binary frame codec.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! ┌────────────┬─────────┬──────────────────────────────┐
//! │ u32 length │ u8 kind │ body (length − 1 bytes, LE)  │
//! └────────────┴─────────┴──────────────────────────────┘
//! ```
//!
//! `length` counts the kind byte plus the body and is bounded by
//! [`MAX_FRAME`]; anything larger is rejected *before* buffering, so a
//! corrupt or adversarial length prefix cannot balloon server memory.
//! All integers are little-endian. The codec is hand-rolled (no serde on
//! the wire): the frame set is small, fixed, and versioned through the
//! `Hello` handshake, and every decode error is a typed [`WireError`] —
//! a truncated or garbled frame can never panic the peer.
//!
//! Reading is **resumable**: [`FrameReader`] accumulates bytes across
//! short reads and poll timeouts and yields a frame only when it is
//! complete, which is what lets both endpoints run bounded socket
//! timeouts (no wait in the system is ever indefinite) and lets the
//! chaos battery cut frames at every byte boundary.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic, first field of every `Hello` body (`"HRPC"`).
pub const MAGIC: u32 = 0x4852_5043;
/// Protocol version negotiated by the handshake.
pub const VERSION: u16 = 1;
/// Upper bound on one frame's `length` field (kind + body).
pub const MAX_FRAME: usize = 1 << 20;

/// Handshake verdicts carried by [`Frame::HelloAck`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Connection admitted; requests may flow.
    Ok,
    /// The server is at its connection bound — typed backpressure, the
    /// client should back off and redial.
    Busy,
    /// The server is draining toward a checkpoint and accepts no new
    /// connections.
    Draining,
    /// The `Hello` token did not verify.
    AuthFailed,
}

impl Accept {
    fn to_u8(self) -> u8 {
        match self {
            Accept::Ok => 0,
            Accept::Busy => 1,
            Accept::Draining => 2,
            Accept::AuthFailed => 3,
        }
    }

    fn from_u8(raw: u8) -> Result<Self, WireError> {
        Ok(match raw {
            0 => Accept::Ok,
            1 => Accept::Busy,
            2 => Accept::Draining,
            3 => Accept::AuthFailed,
            other => return Err(WireError::Malformed("unknown Accept verdict", other as u64)),
        })
    }
}

/// Server-side counters reported over the wire (`Frame::StatsReply`),
/// for the ops CLI and the failure-semantics tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Requests resolved with an executed outcome (success or typed
    /// in-flight failure).
    pub served: u64,
    /// Requests shed at the server because their deadline had already
    /// expired — these never reached the ORAM engine.
    pub shed_deadline: u64,
    /// Requests refused with `Busy` (server at its in-flight bound).
    pub busy_rejects: u64,
    /// Requests refused with `QueueFull` (tenant at its backpressure
    /// bound).
    pub queue_full_rejects: u64,
    /// Retries answered from the idempotent response window without
    /// re-executing.
    pub dedup_hits: u64,
    /// Requests refused because the server was draining.
    pub shed_draining: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Whether the server is currently draining.
    pub draining: bool,
}

/// One protocol message. See the module docs for the envelope; each
/// variant documents its body layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client → server, first frame on every connection:
    /// `u32 magic | u16 version | u64 client_id | u32 tenant | u64 token`.
    ///
    /// `client_id` scopes the idempotent request-id space — a client
    /// must reuse the same id across redials for the dedup window to
    /// recognize its retries.
    Hello {
        /// The retry-stable client identity.
        client_id: u64,
        /// The tenant to submit as (must be registered server-side).
        tenant: u32,
        /// Auth token (checked iff the server configures one).
        token: u64,
    },
    /// Server → client handshake verdict: `u8 accept | u64 epoch`.
    ///
    /// `epoch` increments each time the serving process starts, so a
    /// client that reconnects can observe a restart.
    HelloAck {
        /// Admission verdict.
        accept: Accept,
        /// The serving process's start epoch.
        epoch: u64,
    },
    /// Client → server, one ORAM operation:
    /// `u64 req_id | u64 deadline_nanos | u8 op | u64 block | [u32 len | bytes]`.
    ///
    /// `req_id` must be unique per `(client_id, request)` and **reused
    /// verbatim on retries** — it is the idempotency key. The payload is
    /// present iff `op` is a write. `deadline_nanos` is a relative
    /// budget from submission (0 = none); the server sheds the request
    /// with `DEADLINE_EXPIRED` if the budget is already spent when the
    /// request would otherwise be admitted.
    Request {
        /// Idempotency key, unique per client.
        req_id: u64,
        /// Relative deadline budget in nanoseconds; 0 = none.
        deadline_nanos: u64,
        /// Target logical block.
        block: u64,
        /// Write payload; `None` makes this a read.
        payload: Option<Vec<u8>>,
    },
    /// Server → client, the outcome of one request:
    /// `u64 req_id | u16 status | u32 shard | u32 mlen | msg | u32 plen | payload`.
    ///
    /// `status` 0 carries the payload; any other value is a typed error
    /// (see [`crate::status`]) whose `shard`/`msg` preserve the
    /// `Degraded { shard, reason }` detail across the wire.
    Response {
        /// Echo of the request's idempotency key.
        req_id: u64,
        /// Wire status code (see [`crate::status`]).
        status: u16,
        /// Degraded-shard index (meaningful for `DEGRADED` only).
        shard: u32,
        /// Human-readable error detail (empty on success).
        message: String,
        /// Response payload (empty on error).
        payload: Vec<u8>,
    },
    /// Liveness probe: `u64 nonce`.
    Ping {
        /// Echoed by the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Probe reply: `u64 nonce`.
    Pong {
        /// Echo of the probe nonce.
        nonce: u64,
    },
    /// Client → server: begin a graceful drain (stop accepting, finish
    /// in-flight work, checkpoint, exit) — the remote equivalent of
    /// SIGTERM, for operators and tests.
    Drain,
    /// Server → client: the drain has begun.
    DrainStarted,
    /// Client → server: report counters.
    Stats,
    /// Server → client: the counters.
    StatsReply(ServerCounters),
}

/// Typed decode failures. `Truncated` is *resumable* (more bytes may
/// still arrive); everything else poisons the stream — there is no way
/// to resynchronize a length-prefixed stream after a garbled prefix, so
/// the connection must be dropped and redialed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffered bytes end before the frame does.
    Truncated {
        /// Bytes needed to finish the pending item.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize {
        /// The claimed frame length.
        len: u64,
    },
    /// The frame kind byte is not part of the protocol.
    UnknownKind(u8),
    /// A `Hello` without the protocol magic.
    BadMagic {
        /// What arrived instead of [`MAGIC`].
        got: u32,
    },
    /// A `Hello` from an incompatible protocol version.
    BadVersion {
        /// The peer's version.
        got: u16,
    },
    /// A structurally invalid body (context, offending value).
    Malformed(&'static str, u64),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            WireError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME}-byte bound")
            }
            WireError::UnknownKind(kind) => write!(f, "unknown frame kind {kind}"),
            WireError::BadMagic { got } => write!(f, "bad protocol magic {got:#x}"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::Malformed(context, value) => {
                write!(f, "malformed frame: {context} ({value})")
            }
        }
    }
}

impl Error for WireError {}

// ------------------------------------------------------------ body codec

/// Little-endian body writer.
#[derive(Debug, Default)]
struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian body reader over a complete frame body.
struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(WireError::Oversize { len: u64::MAX })?;
        if end > self.buf.len() {
            return Err(WireError::Truncated {
                needed: end,
                got: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }
    fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversize { len: len as u64 });
        }
        self.take(len)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(
                "trailing bytes after body",
                (self.buf.len() - self.pos) as u64,
            ))
        }
    }
}

// ------------------------------------------------------------- frame codec

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_REQUEST: u8 = 3;
const KIND_RESPONSE: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_DRAIN: u8 = 7;
const KIND_DRAIN_STARTED: u8 = 8;
const KIND_STATS: u8 = 9;
const KIND_STATS_REPLY: u8 = 10;

/// Encodes one frame: length prefix, kind byte, body.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body = BodyWriter::default();
    let kind = match frame {
        Frame::Hello {
            client_id,
            tenant,
            token,
        } => {
            body.u32(MAGIC);
            body.u16(VERSION);
            body.u64(*client_id);
            body.u32(*tenant);
            body.u64(*token);
            KIND_HELLO
        }
        Frame::HelloAck { accept, epoch } => {
            body.u8(accept.to_u8());
            body.u64(*epoch);
            KIND_HELLO_ACK
        }
        Frame::Request {
            req_id,
            deadline_nanos,
            block,
            payload,
        } => {
            body.u64(*req_id);
            body.u64(*deadline_nanos);
            body.u8(u8::from(payload.is_some()));
            body.u64(*block);
            if let Some(payload) = payload {
                body.bytes(payload);
            }
            KIND_REQUEST
        }
        Frame::Response {
            req_id,
            status,
            shard,
            message,
            payload,
        } => {
            body.u64(*req_id);
            body.u16(*status);
            body.u32(*shard);
            body.bytes(message.as_bytes());
            body.bytes(payload);
            KIND_RESPONSE
        }
        Frame::Ping { nonce } => {
            body.u64(*nonce);
            KIND_PING
        }
        Frame::Pong { nonce } => {
            body.u64(*nonce);
            KIND_PONG
        }
        Frame::Drain => KIND_DRAIN,
        Frame::DrainStarted => KIND_DRAIN_STARTED,
        Frame::Stats => KIND_STATS,
        Frame::StatsReply(counters) => {
            body.u64(counters.served);
            body.u64(counters.shed_deadline);
            body.u64(counters.busy_rejects);
            body.u64(counters.queue_full_rejects);
            body.u64(counters.dedup_hits);
            body.u64(counters.shed_draining);
            body.u64(counters.connections);
            body.u8(u8::from(counters.draining));
            KIND_STATS_REPLY
        }
    };
    let body = body.buf;
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&(1 + body.len() as u32).to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&body);
    out
}

/// Decodes one complete frame body (everything after the length prefix
/// and kind byte).
pub fn decode_frame(kind: u8, body: &[u8]) -> Result<Frame, WireError> {
    let mut r = BodyReader::new(body);
    let frame = match kind {
        KIND_HELLO => {
            let magic = r.u32()?;
            if magic != MAGIC {
                return Err(WireError::BadMagic { got: magic });
            }
            let version = r.u16()?;
            if version != VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            Frame::Hello {
                client_id: r.u64()?,
                tenant: r.u32()?,
                token: r.u64()?,
            }
        }
        KIND_HELLO_ACK => Frame::HelloAck {
            accept: Accept::from_u8(r.u8()?)?,
            epoch: r.u64()?,
        },
        KIND_REQUEST => {
            let req_id = r.u64()?;
            let deadline_nanos = r.u64()?;
            let is_write = r.u8()?;
            let block = r.u64()?;
            let payload = match is_write {
                0 => None,
                1 => Some(r.bytes()?.to_vec()),
                other => return Err(WireError::Malformed("request op byte", other as u64)),
            };
            Frame::Request {
                req_id,
                deadline_nanos,
                block,
                payload,
            }
        }
        KIND_RESPONSE => {
            let req_id = r.u64()?;
            let status = r.u16()?;
            let shard = r.u32()?;
            let message = String::from_utf8_lossy(r.bytes()?).into_owned();
            let payload = r.bytes()?.to_vec();
            Frame::Response {
                req_id,
                status,
                shard,
                message,
                payload,
            }
        }
        KIND_PING => Frame::Ping { nonce: r.u64()? },
        KIND_PONG => Frame::Pong { nonce: r.u64()? },
        KIND_DRAIN => Frame::Drain,
        KIND_DRAIN_STARTED => Frame::DrainStarted,
        KIND_STATS => Frame::Stats,
        KIND_STATS_REPLY => Frame::StatsReply(ServerCounters {
            served: r.u64()?,
            shed_deadline: r.u64()?,
            busy_rejects: r.u64()?,
            queue_full_rejects: r.u64()?,
            dedup_hits: r.u64()?,
            shed_draining: r.u64()?,
            connections: r.u64()?,
            draining: r.u8()? != 0,
        }),
        other => return Err(WireError::UnknownKind(other)),
    };
    r.finish()?;
    Ok(frame)
}

/// Writes one frame as a single `write_all` call. The client sends every
/// frame this way — one frame, one write, which is the granularity the
/// transport fault injector ([`oram_storage::fault::FaultyConn`])
/// schedules on. The server coalesces: each pump's responses for one
/// connection leave in one write.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))
}

/// What one [`FrameReader::poll`] produced.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame.
    Frame(Frame),
    /// No complete frame yet (short read or poll timeout); call again.
    Pending,
    /// The peer closed the stream cleanly between frames.
    Closed,
}

/// Resumable frame reader: accumulates bytes across short reads and
/// bounded-timeout polls, yields complete frames, and reports a typed
/// [`WireError::Truncated`] when the peer dies mid-frame.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a partially received frame is pending (peer death now
    /// would be a mid-frame truncation, not a clean close).
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Parses the next frame already buffered, without touching the
    /// stream; `Ok(None)` means more bytes are needed. After a
    /// [`FrameReader::poll`] that yielded a frame, this drains the rest of
    /// the frames that arrived in the same read.
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed bytes (the stream is poisoned).
    pub(crate) fn next_buffered(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len == 0 {
            return Err(WireError::Malformed("zero-length frame", 0));
        }
        if len > MAX_FRAME {
            // Reject before buffering the body: the bound is enforced on
            // the prefix, not on allocation.
            return Err(WireError::Oversize { len: len as u64 });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let kind = self.buf[4];
        let frame = decode_frame(kind, &self.buf[5..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    /// Polls the stream for the next frame. Returns
    /// [`FramePoll::Pending`] on `WouldBlock`/`TimedOut` (the bounded
    /// socket timeout ticking over) and [`FramePoll::Closed`] on a clean
    /// EOF; an EOF that lands mid-frame is a typed
    /// [`WireError::Truncated`].
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed bytes (poisons the stream — redial);
    /// I/O errors other than the would-block family propagate.
    pub fn poll<R: Read>(&mut self, stream: &mut R) -> Result<FramePoll, PollError> {
        // Serve buffered frames before touching the socket, so several
        // frames arriving in one read are all delivered.
        if let Some(frame) = self.next_buffered()? {
            return Ok(FramePoll::Frame(frame));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if self.mid_frame() {
                    Err(PollError::Wire(WireError::Truncated {
                        needed: 4,
                        got: self.buf.len(),
                    }))
                } else {
                    Ok(FramePoll::Closed)
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match self.next_buffered()? {
                    Some(frame) => Ok(FramePoll::Frame(frame)),
                    None => Ok(FramePoll::Pending),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(FramePoll::Pending)
            }
            Err(e) => Err(PollError::Io(e)),
        }
    }
}

/// Why a [`FrameReader::poll`] failed.
#[derive(Debug)]
pub enum PollError {
    /// The stream died or errored.
    Io(io::Error),
    /// The bytes are not a valid frame (stream is poisoned).
    Wire(WireError),
}

impl From<WireError> for PollError {
    fn from(e: WireError) -> Self {
        PollError::Wire(e)
    }
}

impl fmt::Display for PollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PollError::Io(e) => write!(f, "io: {e}"),
            PollError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl Error for PollError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = encode_frame(&frame);
        let len = u32::from_le_bytes([encoded[0], encoded[1], encoded[2], encoded[3]]) as usize;
        assert_eq!(len, encoded.len() - 4);
        let decoded = decode_frame(encoded[4], &encoded[5..]).expect("decodes");
        assert_eq!(decoded, frame);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello {
            client_id: 7,
            tenant: 3,
            token: 0xdead_beef,
        });
        roundtrip(Frame::HelloAck {
            accept: Accept::Ok,
            epoch: 42,
        });
        roundtrip(Frame::HelloAck {
            accept: Accept::Draining,
            epoch: 1,
        });
        roundtrip(Frame::Request {
            req_id: 1,
            deadline_nanos: 5_000,
            block: 99,
            payload: None,
        });
        roundtrip(Frame::Request {
            req_id: 2,
            deadline_nanos: 0,
            block: 0,
            payload: Some(vec![1, 2, 3]),
        });
        roundtrip(Frame::Response {
            req_id: 9,
            status: 5,
            shard: 2,
            message: "shard 2 degraded: tag mismatch".into(),
            payload: Vec::new(),
        });
        roundtrip(Frame::Ping { nonce: 11 });
        roundtrip(Frame::Pong { nonce: 11 });
        roundtrip(Frame::Drain);
        roundtrip(Frame::DrainStarted);
        roundtrip(Frame::Stats);
        roundtrip(Frame::StatsReply(ServerCounters {
            served: 1,
            shed_deadline: 2,
            busy_rejects: 3,
            queue_full_rejects: 4,
            dedup_hits: 5,
            shed_draining: 6,
            connections: 7,
            draining: true,
        }));
    }

    #[test]
    fn oversize_prefix_is_rejected_before_buffering() {
        let mut reader = FrameReader::new();
        let mut bytes: &[u8] = &(MAX_FRAME as u32 + 1).to_le_bytes();
        let err = reader.poll(&mut bytes).unwrap_err();
        assert!(matches!(err, PollError::Wire(WireError::Oversize { .. })));
    }

    #[test]
    fn truncation_at_every_byte_is_pending_then_typed_on_eof() {
        let encoded = encode_frame(&Frame::Request {
            req_id: 3,
            deadline_nanos: 0,
            block: 17,
            payload: Some(vec![9u8; 16]),
        });
        for cut in 1..encoded.len() {
            let mut reader = FrameReader::new();
            let mut partial: &[u8] = &encoded[..cut];
            // Feeding the prefix: never a frame, never a crash.
            match reader.poll(&mut partial) {
                Ok(FramePoll::Pending) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
            // EOF mid-frame is a typed truncation.
            let mut eof: &[u8] = &[];
            match reader.poll(&mut eof) {
                Ok(FramePoll::Pending) if reader.mid_frame() => {
                    // A cut inside the length prefix still counts as
                    // mid-frame; poll again to surface the truncation.
                    match reader.poll(&mut eof) {
                        Err(PollError::Wire(WireError::Truncated { .. })) => {}
                        other => panic!("cut at {cut}: expected truncation, got {other:?}"),
                    }
                }
                Err(PollError::Wire(WireError::Truncated { .. })) => {}
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn pipelined_frames_in_one_read_all_surface() {
        let mut bytes = encode_frame(&Frame::Ping { nonce: 1 });
        bytes.extend(encode_frame(&Frame::Ping { nonce: 2 }));
        bytes.extend(encode_frame(&Frame::Drain));
        let mut reader = FrameReader::new();
        let mut stream: &[u8] = &bytes;
        let mut got = Vec::new();
        loop {
            match reader.poll(&mut stream).expect("valid stream") {
                FramePoll::Frame(frame) => got.push(frame),
                FramePoll::Closed => break,
                FramePoll::Pending => {}
            }
        }
        assert_eq!(
            got,
            vec![
                Frame::Ping { nonce: 1 },
                Frame::Ping { nonce: 2 },
                Frame::Drain
            ]
        );
    }

    #[test]
    fn unknown_kind_is_typed() {
        let err = decode_frame(200, &[]).unwrap_err();
        assert_eq!(err, WireError::UnknownKind(200));
    }

    #[test]
    fn hello_checks_magic_and_version() {
        let mut body = Vec::new();
        body.extend_from_slice(&0x0BAD_0BAD_u32.to_le_bytes());
        body.extend_from_slice(&VERSION.to_le_bytes());
        body.extend_from_slice(&[0u8; 20]);
        assert!(matches!(
            decode_frame(KIND_HELLO, &body),
            Err(WireError::BadMagic { .. })
        ));

        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.extend_from_slice(&999u16.to_le_bytes());
        body.extend_from_slice(&[0u8; 20]);
        assert!(matches!(
            decode_frame(KIND_HELLO, &body),
            Err(WireError::BadVersion { got: 999 })
        ));
    }

    #[test]
    fn trailing_garbage_is_typed() {
        let mut encoded = encode_frame(&Frame::Ping { nonce: 4 });
        // Corrupt: lengthen the body without updating the prefix's view.
        encoded.extend_from_slice(&[0xFF; 3]);
        let len = (encoded.len() - 4) as u32;
        encoded[..4].copy_from_slice(&len.to_le_bytes());
        let err = decode_frame(encoded[4], &encoded[5..]).unwrap_err();
        assert!(matches!(
            err,
            WireError::Malformed("trailing bytes after body", 3)
        ));
    }
}
