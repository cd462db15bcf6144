//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! ```text
//! frame := u32 length (LE, length of tag + payload) | u8 tag | payload
//! ```
//!
//! Requests carry a full query spec (tables, predicates, aggregates,
//! grouping, per-query threshold hint and plan-selection mode), an
//! execution mode, and a deadline; responses stream result batches
//! followed by a completion summary, or a typed error.  The encoding is
//! hand-rolled little-endian with no external dependencies.
//!
//! # Decoding is defensive
//!
//! Every byte of a frame comes from an **untrusted** peer, so decoding
//! must never panic, never overflow the stack, and never allocate
//! unboundedly:
//!
//! * frame lengths are capped at [`MAX_FRAME_LEN`] ([`ProtoError::Oversized`]);
//! * expression trees are depth-limited ([`ProtoError::TooDeep`]);
//! * collection counts are validated against the bytes actually present
//!   before any allocation ([`ProtoError::Truncated`]);
//! * a frame whose payload outlives its message is rejected
//!   ([`ProtoError::TrailingBytes`]) — no silent resynchronization;
//! * values that would violate invariants downstream (a confidence
//!   threshold outside `(0, 1)`, an empty table list, a `SUM` without a
//!   column) are rejected at decode time, **before** they can reach code
//!   that asserts them.
//!
//! The round-trip property (`decode(encode(m)) == m`) and the
//! never-panics property over arbitrary byte soup are pinned by
//! `tests/proto_roundtrip.rs`.
//!
//! # Frame I/O
//!
//! [`write_frame`] hands its writer a whole frame in one `write_all`
//! and refuses a body the peer would have to reject; [`read_frame`]
//! makes two reads per frame (length, then body), so give it a
//! `BufReader` over a socket.  How frames are grouped into socket
//! writes is the sender's business: see [`net`](crate::net).

use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

use rqo_core::{ConfidenceThreshold, PlanSelection};
use rqo_exec::{AggExpr, AggFunc};
use rqo_expr::{BinaryOp, Expr, UnaryOp};
use rqo_optimizer::Query;
use rqo_storage::Value;

use crate::engine::RunPolicy;

/// Hard cap on the length field of a single frame (tag + payload).
/// Anything larger is rejected before allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Maximum expression-tree nesting depth accepted by the decoder.  Deep
/// enough for any real predicate; shallow enough that recursion over an
/// adversarial frame cannot overflow the stack.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Rows per [`Response::Batch`] frame when a server streams a result.
pub const DEFAULT_BATCH_ROWS: usize = 256;

// Client → server frame tags.  `0x01` is retired (it carried a
// per-tenant hello) and is not reused: a peer that sends it gets
// `UnknownTag(1)`.
const TAG_RUN: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_INSERT: u8 = 0x04;
// Server → client frame tags.
const TAG_BATCH: u8 = 0x81;
const TAG_DONE: u8 = 0x82;
const TAG_ERROR: u8 = 0x83;
const TAG_PONG: u8 = 0x84;
const TAG_INSERT_OK: u8 = 0x85;

/// Why a frame (or a stream of frames) could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended mid-frame (inside the header or the payload).
    Truncated,
    /// The frame length field exceeds [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// The frame length field was zero (no room for even a tag).
    EmptyFrame,
    /// An unknown frame tag.
    UnknownTag(u8),
    /// An unknown enum discriminant inside a payload (`what` names the
    /// enum being decoded).
    BadDiscriminant {
        /// Which wire enum the byte was decoding into.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// An expression tree nested deeper than [`MAX_EXPR_DEPTH`].
    TooDeep,
    /// A frame's payload continued past the end of its message.
    TrailingBytes(usize),
    /// A decoded value violates a query invariant (`what` says which).
    Invalid(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => f.write_str("truncated frame"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            ProtoError::EmptyFrame => f.write_str("zero-length frame"),
            ProtoError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            ProtoError::BadDiscriminant { what, value } => {
                write!(f, "bad {what} discriminant {value:#04x}")
            }
            ProtoError::BadUtf8 => f.write_str("string payload is not UTF-8"),
            ProtoError::TooDeep => {
                write!(f, "expression nesting exceeds {MAX_EXPR_DEPTH}")
            }
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            ProtoError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Typed error codes a server can return in a [`Response::Error`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue was full on arrival.
    QueueFull,
    /// The query waited out the admission queue timeout.
    QueueTimeout,
    /// The query was cancelled (client disconnect or explicit cancel).
    Cancelled,
    /// The query's deadline passed while queued or running.
    DeadlineExceeded,
    /// The peer sent a malformed frame; the connection will close.
    Protocol,
    /// The query referenced unknown tables/columns or was otherwise
    /// semantically invalid for this catalog.
    BadQuery,
    /// The server's connection limit was reached.
    ConnectionLimit,
    /// The server failed internally while executing the query.
    Internal,
}

impl ErrorCode {
    /// Code `5` is retired (it was a per-tenant quota refusal) and is
    /// not reused: an `Error` frame carrying it fails to decode.
    fn to_wire(self) -> u8 {
        match self {
            ErrorCode::QueueFull => 1,
            ErrorCode::QueueTimeout => 2,
            ErrorCode::Cancelled => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Protocol => 6,
            ErrorCode::BadQuery => 7,
            ErrorCode::ConnectionLimit => 8,
            ErrorCode::Internal => 9,
        }
    }

    fn from_wire(b: u8) -> Result<Self, ProtoError> {
        Ok(match b {
            1 => ErrorCode::QueueFull,
            2 => ErrorCode::QueueTimeout,
            3 => ErrorCode::Cancelled,
            4 => ErrorCode::DeadlineExceeded,
            6 => ErrorCode::Protocol,
            7 => ErrorCode::BadQuery,
            8 => ErrorCode::ConnectionLimit,
            9 => ErrorCode::Internal,
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "error code",
                    value,
                })
            }
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::QueueTimeout => "queue-timeout",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::Protocol => "protocol",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::ConnectionLimit => "connection-limit",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// How the server should execute a request's query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Plain execution through the plan cache ([`RunPolicy::Run`]).
    #[default]
    Run,
    /// Mid-query adaptive re-optimization ([`RunPolicy::Adaptive`]).
    Adaptive,
}

/// The wire reaches only the two policies a client may ask for; the
/// analyze policies stay in-process.
impl From<RunMode> for RunPolicy {
    fn from(mode: RunMode) -> Self {
        match mode {
            RunMode::Run => RunPolicy::Run,
            RunMode::Adaptive => RunPolicy::Adaptive,
        }
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submits one query.
    Run {
        /// Client-chosen request id, echoed on every response frame.
        id: u64,
        /// Execution mode.
        mode: RunMode,
        /// Per-query deadline in milliseconds (`0` = none).
        deadline_ms: u64,
        /// The query itself.
        query: Query,
    },
    /// Liveness probe; the server echoes the nonce in a
    /// [`Response::Pong`].
    Ping {
        /// Echoed opaque value.
        nonce: u64,
    },
    /// Appends a batch of rows to one table.  The batch is atomic:
    /// either every row is validated against the table's schema and
    /// ingested, or none are and the server answers with
    /// [`ErrorCode::BadQuery`].
    Insert {
        /// Client-chosen request id, echoed on the reply frame.
        id: u64,
        /// Destination table.
        table: String,
        /// The rows, each in schema column order.
        rows: Vec<Vec<Value>>,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// One chunk of result rows for request `id`.  Zero or more
    /// precede the [`Response::Done`] frame; rows arrive in result
    /// order.
    Batch {
        /// Request id this batch belongs to.
        id: u64,
        /// Result rows.
        rows: Vec<Vec<Value>>,
    },
    /// Terminates a successful request.
    Done {
        /// Request id.
        id: u64,
        /// Output column names.
        columns: Vec<String>,
        /// Total rows streamed across all batches (client-side
        /// integrity check).
        total_rows: u64,
        /// Simulated execution cost in seconds.
        simulated_seconds: f64,
        /// The optimizer's own estimate in seconds.
        estimated_seconds: f64,
        /// Mid-query re-plans (always `0` under [`RunMode::Run`]).
        replans: u64,
    },
    /// Terminates a failed request (or, with `id == 0`, reports a
    /// connection-level failure such as a protocol error).
    Error {
        /// Request id (`0` for connection-level errors).
        id: u64,
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to a [`Request::Ping`].
    Pong {
        /// The request's nonce.
        nonce: u64,
    },
    /// Terminates a successful [`Request::Insert`].
    InsertOk {
        /// Request id.
        id: u64,
        /// Rows ingested by this request.
        rows_inserted: u64,
        /// The table's total row count after the insert.
        table_rows: u64,
    },
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// Reads one frame body (tag + payload) from `r` — the length and the
/// body in separate reads, so `r` should be buffered.
///
/// Returns `Ok(None)` on a clean EOF **at a frame boundary** (the peer
/// closed between messages).  EOF inside a header or payload is a
/// [`ProtoError::Truncated`]; I/O errors other than EOF surface as
/// `Err(Frame::Io)`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameReadError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(FrameReadError::Proto(ProtoError::Truncated))
                };
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(FrameReadError::Proto(ProtoError::EmptyFrame));
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameReadError::Proto(ProtoError::Oversized(len)));
    }
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(Some(body)),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(FrameReadError::Proto(ProtoError::Truncated))
        }
        Err(e) => Err(FrameReadError::Io(e)),
    }
}

/// Why [`read_frame`] failed: the peer broke the protocol, or the
/// transport itself failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The bytes violate the protocol.
    Proto(ProtoError),
    /// The socket failed.
    Io(io::Error),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Proto(e) => write!(f, "protocol error: {e}"),
            FrameReadError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Wraps an encoded frame body in its length prefix and writes it with
/// **one** `write_all`: issued as two small writes on a socket, the
/// body waits out Nagle's algorithm and the peer's delayed ACK (≈ 40 ms)
/// behind the prefix.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a body no peer would accept
/// (empty, or longer than [`MAX_FRAME_LEN`]); otherwise what `w` returns.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.is_empty() || body.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes (1..={MAX_FRAME_LEN})", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)
}

/// Encoded size of `row` inside a [`Response::Batch`] frame, so a sender
/// can cut a reply into frames by bytes without encoding it twice.
pub(crate) fn batch_row_len(row: &[Value]) -> usize {
    let value_len = |v: &Value| match v {
        Value::Null => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Date(_) => 5,
        Value::Str(s) => 5 + s.len(),
        Value::Bool(_) => 2,
    };
    4 + row.iter().map(value_len).sum::<usize>()
}

/// Bytes of a [`Response::Batch`] frame body that are not rows: tag,
/// request id, row count.
pub(crate) const BATCH_HEADER_LEN: usize = 1 + 8 + 4;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        Enc { buf: vec![tag] }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            Value::Float(f) => {
                self.u8(2);
                self.f64(*f);
            }
            Value::Date(d) => {
                self.u8(3);
                self.i32(*d);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Bool(b) => {
                self.u8(5);
                self.u8(*b as u8);
            }
        }
    }
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Col(name) => {
                self.u8(0);
                self.str(name);
            }
            Expr::ColIdx(idx, name) => {
                self.u8(1);
                self.u32(*idx as u32);
                self.str(name);
            }
            Expr::Lit(v) => {
                self.u8(2);
                self.value(v);
            }
            Expr::Binary { op, left, right } => {
                self.u8(3);
                self.u8(binary_op_to_wire(*op));
                self.expr(left);
                self.expr(right);
            }
            Expr::Unary { op, expr } => {
                self.u8(4);
                self.u8(unary_op_to_wire(*op));
                self.expr(expr);
            }
            Expr::Between { expr, lo, hi } => {
                self.u8(5);
                self.expr(expr);
                self.expr(lo);
                self.expr(hi);
            }
            Expr::Like { expr, pattern } => {
                self.u8(6);
                self.expr(expr);
                self.str(pattern);
            }
            Expr::InList { expr, list } => {
                self.u8(7);
                self.expr(expr);
                self.u32(list.len() as u32);
                for v in list {
                    self.value(v);
                }
            }
        }
    }
    fn agg(&mut self, a: &AggExpr) {
        self.u8(match a.func {
            AggFunc::Sum => 0,
            AggFunc::Count => 1,
            AggFunc::Avg => 2,
            AggFunc::Min => 3,
            AggFunc::Max => 4,
        });
        match &a.column {
            Some(c) => {
                self.u8(1);
                self.str(c);
            }
            None => self.u8(0),
        }
        self.str(&a.alias);
    }
    fn query(&mut self, q: &Query) {
        self.u32(q.tables.len() as u32);
        for t in &q.tables {
            self.str(t);
        }
        self.u32(q.predicates.len() as u32);
        for (t, e) in &q.predicates {
            self.str(t);
            self.expr(e);
        }
        self.u32(q.group_by.len() as u32);
        for g in &q.group_by {
            self.str(g);
        }
        self.u32(q.aggregates.len() as u32);
        for a in &q.aggregates {
            self.agg(a);
        }
        match q.hint {
            Some(t) => {
                self.u8(1);
                self.f64(t.value());
            }
            None => self.u8(0),
        }
        self.u8(match q.selection {
            None => 0,
            Some(PlanSelection::Quantile) => 1,
            Some(PlanSelection::ExpectedPenalty) => 2,
        });
    }
}

fn binary_op_to_wire(op: BinaryOp) -> u8 {
    match op {
        BinaryOp::Eq => 0,
        BinaryOp::Ne => 1,
        BinaryOp::Lt => 2,
        BinaryOp::Le => 3,
        BinaryOp::Gt => 4,
        BinaryOp::Ge => 5,
        BinaryOp::And => 6,
        BinaryOp::Or => 7,
        BinaryOp::Add => 8,
        BinaryOp::Sub => 9,
        BinaryOp::Mul => 10,
        BinaryOp::Div => 11,
    }
}

fn unary_op_to_wire(op: UnaryOp) -> u8 {
    match op {
        UnaryOp::Not => 0,
        UnaryOp::Neg => 1,
        UnaryOp::IsNull => 2,
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }
    /// A collection count, validated against the bytes actually left in
    /// the frame (`min_elem_bytes` per element) before any allocation.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(ProtoError::Truncated);
        }
        Ok(n)
    }
    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
    fn value(&mut self) -> Result<Value, ProtoError> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Int(self.i64()?),
            2 => Value::Float(self.f64()?),
            3 => Value::Date(self.i32()?),
            4 => Value::Str(Arc::from(self.str()?.as_str())),
            5 => Value::Bool(self.u8()? != 0),
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "value",
                    value,
                })
            }
        })
    }
    fn expr(&mut self, depth: usize) -> Result<Expr, ProtoError> {
        if depth > MAX_EXPR_DEPTH {
            return Err(ProtoError::TooDeep);
        }
        Ok(match self.u8()? {
            0 => Expr::Col(self.str()?),
            1 => {
                let idx = self.u32()? as usize;
                Expr::ColIdx(idx, self.str()?)
            }
            2 => Expr::Lit(self.value()?),
            3 => {
                let op = self.binary_op()?;
                let left = Box::new(self.expr(depth + 1)?);
                let right = Box::new(self.expr(depth + 1)?);
                Expr::Binary { op, left, right }
            }
            4 => {
                let op = self.unary_op()?;
                let expr = Box::new(self.expr(depth + 1)?);
                Expr::Unary { op, expr }
            }
            5 => {
                let expr = Box::new(self.expr(depth + 1)?);
                let lo = Box::new(self.expr(depth + 1)?);
                let hi = Box::new(self.expr(depth + 1)?);
                Expr::Between { expr, lo, hi }
            }
            6 => {
                let expr = Box::new(self.expr(depth + 1)?);
                let pattern = self.str()?;
                Expr::Like { expr, pattern }
            }
            7 => {
                let expr = Box::new(self.expr(depth + 1)?);
                let n = self.count(1)?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    list.push(self.value()?);
                }
                Expr::InList { expr, list }
            }
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "expression",
                    value,
                })
            }
        })
    }
    fn binary_op(&mut self) -> Result<BinaryOp, ProtoError> {
        Ok(match self.u8()? {
            0 => BinaryOp::Eq,
            1 => BinaryOp::Ne,
            2 => BinaryOp::Lt,
            3 => BinaryOp::Le,
            4 => BinaryOp::Gt,
            5 => BinaryOp::Ge,
            6 => BinaryOp::And,
            7 => BinaryOp::Or,
            8 => BinaryOp::Add,
            9 => BinaryOp::Sub,
            10 => BinaryOp::Mul,
            11 => BinaryOp::Div,
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "binary op",
                    value,
                })
            }
        })
    }
    fn unary_op(&mut self) -> Result<UnaryOp, ProtoError> {
        Ok(match self.u8()? {
            0 => UnaryOp::Not,
            1 => UnaryOp::Neg,
            2 => UnaryOp::IsNull,
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "unary op",
                    value,
                })
            }
        })
    }
    fn agg(&mut self) -> Result<AggExpr, ProtoError> {
        let func = match self.u8()? {
            0 => AggFunc::Sum,
            1 => AggFunc::Count,
            2 => AggFunc::Avg,
            3 => AggFunc::Min,
            4 => AggFunc::Max,
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "aggregate function",
                    value,
                })
            }
        };
        let column = match self.u8()? {
            0 => None,
            1 => Some(self.str()?),
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "aggregate column flag",
                    value,
                })
            }
        };
        if column.is_none() && func != AggFunc::Count {
            return Err(ProtoError::Invalid("non-COUNT aggregate without a column"));
        }
        let alias = self.str()?;
        Ok(AggExpr {
            func,
            column,
            alias,
        })
    }
    fn query(&mut self) -> Result<Query, ProtoError> {
        let n_tables = self.count(5)?;
        if n_tables == 0 {
            return Err(ProtoError::Invalid("query with no tables"));
        }
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            tables.push(self.str()?);
        }
        let n_preds = self.count(6)?;
        let mut predicates = Vec::with_capacity(n_preds);
        for _ in 0..n_preds {
            let t = self.str()?;
            if !tables.contains(&t) {
                return Err(ProtoError::Invalid("predicate on unlisted table"));
            }
            let e = self.expr(0)?;
            predicates.push((t, e));
        }
        let n_group = self.count(5)?;
        let mut group_by = Vec::with_capacity(n_group);
        for _ in 0..n_group {
            group_by.push(self.str()?);
        }
        let n_aggs = self.count(7)?;
        let mut aggregates = Vec::with_capacity(n_aggs);
        for _ in 0..n_aggs {
            aggregates.push(self.agg()?);
        }
        let hint = match self.u8()? {
            0 => None,
            1 => {
                let t = self.f64()?;
                if !(t.is_finite() && t > 0.0 && t < 1.0) {
                    return Err(ProtoError::Invalid("confidence hint outside (0, 1)"));
                }
                Some(ConfidenceThreshold::new(t))
            }
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "hint flag",
                    value,
                })
            }
        };
        let selection = match self.u8()? {
            0 => None,
            1 => Some(PlanSelection::Quantile),
            2 => Some(PlanSelection::ExpectedPenalty),
            value => {
                return Err(ProtoError::BadDiscriminant {
                    what: "plan selection",
                    value,
                })
            }
        };
        Ok(Query {
            tables,
            predicates,
            group_by,
            aggregates,
            hint,
            selection,
        })
    }
}

impl Request {
    /// Encodes this request as one frame body (tag + payload, no length
    /// prefix — pair with [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Run {
                id,
                mode,
                deadline_ms,
                query,
            } => {
                let mut e = Enc::new(TAG_RUN);
                e.u64(*id);
                e.u8(match mode {
                    RunMode::Run => 0,
                    RunMode::Adaptive => 1,
                });
                e.u64(*deadline_ms);
                e.query(query);
                e.buf
            }
            Request::Ping { nonce } => {
                let mut e = Enc::new(TAG_PING);
                e.u64(*nonce);
                e.buf
            }
            Request::Insert { id, table, rows } => {
                let mut e = Enc::new(TAG_INSERT);
                e.u64(*id);
                e.str(table);
                e.u32(rows.len() as u32);
                for row in rows {
                    e.u32(row.len() as u32);
                    for v in row {
                        e.value(v);
                    }
                }
                e.buf
            }
        }
    }

    /// Decodes one frame body into a request.  Never panics: every
    /// malformed input returns a [`ProtoError`].
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(body);
        let req = match d.u8()? {
            TAG_RUN => {
                let id = d.u64()?;
                let mode = match d.u8()? {
                    0 => RunMode::Run,
                    1 => RunMode::Adaptive,
                    value => {
                        return Err(ProtoError::BadDiscriminant {
                            what: "run mode",
                            value,
                        })
                    }
                };
                let deadline_ms = d.u64()?;
                let query = d.query()?;
                Request::Run {
                    id,
                    mode,
                    deadline_ms,
                    query,
                }
            }
            TAG_PING => Request::Ping { nonce: d.u64()? },
            TAG_INSERT => {
                let id = d.u64()?;
                let table = d.str()?;
                if table.is_empty() {
                    return Err(ProtoError::Invalid("insert into unnamed table"));
                }
                let n_rows = d.count(4)?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let n_cols = d.count(1)?;
                    let mut row = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        row.push(d.value()?);
                    }
                    rows.push(row);
                }
                Request::Insert { id, table, rows }
            }
            t => return Err(ProtoError::UnknownTag(t)),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes this response as one frame body (pair with
    /// [`write_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Batch { id, rows } => {
                let mut e = Enc::new(TAG_BATCH);
                e.u64(*id);
                e.u32(rows.len() as u32);
                for row in rows {
                    e.u32(row.len() as u32);
                    for v in row {
                        e.value(v);
                    }
                }
                e.buf
            }
            Response::Done {
                id,
                columns,
                total_rows,
                simulated_seconds,
                estimated_seconds,
                replans,
            } => {
                let mut e = Enc::new(TAG_DONE);
                e.u64(*id);
                e.u32(columns.len() as u32);
                for c in columns {
                    e.str(c);
                }
                e.u64(*total_rows);
                e.f64(*simulated_seconds);
                e.f64(*estimated_seconds);
                e.u64(*replans);
                e.buf
            }
            Response::Error { id, code, message } => {
                let mut e = Enc::new(TAG_ERROR);
                e.u64(*id);
                e.u8(code.to_wire());
                e.str(message);
                e.buf
            }
            Response::Pong { nonce } => {
                let mut e = Enc::new(TAG_PONG);
                e.u64(*nonce);
                e.buf
            }
            Response::InsertOk {
                id,
                rows_inserted,
                table_rows,
            } => {
                let mut e = Enc::new(TAG_INSERT_OK);
                e.u64(*id);
                e.u64(*rows_inserted);
                e.u64(*table_rows);
                e.buf
            }
        }
    }

    /// Decodes one frame body into a response.  Never panics.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(body);
        let resp = match d.u8()? {
            TAG_BATCH => {
                let id = d.u64()?;
                let n_rows = d.count(4)?;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let n_cols = d.count(1)?;
                    let mut row = Vec::with_capacity(n_cols);
                    for _ in 0..n_cols {
                        row.push(d.value()?);
                    }
                    rows.push(row);
                }
                Response::Batch { id, rows }
            }
            TAG_DONE => {
                let id = d.u64()?;
                let n_cols = d.count(4)?;
                let mut columns = Vec::with_capacity(n_cols);
                for _ in 0..n_cols {
                    columns.push(d.str()?);
                }
                Response::Done {
                    id,
                    columns,
                    total_rows: d.u64()?,
                    simulated_seconds: d.f64()?,
                    estimated_seconds: d.f64()?,
                    replans: d.u64()?,
                }
            }
            TAG_ERROR => {
                let id = d.u64()?;
                let code = ErrorCode::from_wire(d.u8()?)?;
                let message = d.str()?;
                Response::Error { id, code, message }
            }
            TAG_PONG => Response::Pong { nonce: d.u64()? },
            TAG_INSERT_OK => Response::InsertOk {
                id: d.u64()?,
                rows_inserted: d.u64()?,
                table_rows: d.u64()?,
            },
            t => return Err(ProtoError::UnknownTag(t)),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let body = req.encode();
        let back = Request::decode(&body).expect("decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let body = resp.encode();
        let back = Response::decode(&body).expect("decodes");
        assert_eq!(&back, resp);
    }

    fn sample_query() -> Query {
        Query::over(&["lineitem", "orders"])
            .filter(
                "lineitem",
                Expr::col("l_quantity")
                    .between(Expr::lit(1i64), Expr::lit(10i64))
                    .and(Expr::col("l_comment").like("x%")),
            )
            .filter(
                "orders",
                Expr::col("o_totalprice")
                    .gt(Expr::lit(0.5))
                    .or(Expr::col("o_orderpriority")
                        .in_list(vec![Value::str("1-URGENT"), Value::Null])),
            )
            .group(&["l_partkey"])
            .aggregate(AggExpr::sum("l_extendedprice", "revenue"))
            .aggregate(AggExpr::count_star("n"))
            .with_hint(ConfidenceThreshold::new(0.8))
            .with_selection(PlanSelection::ExpectedPenalty)
    }

    #[test]
    fn request_frames_roundtrip() {
        roundtrip_request(&Request::Ping { nonce: 0xDEAD });
        roundtrip_request(&Request::Run {
            id: 7,
            mode: RunMode::Adaptive,
            deadline_ms: 1500,
            query: sample_query(),
        });
        roundtrip_request(&Request::Insert {
            id: 9,
            table: "lineitem".into(),
            rows: vec![
                vec![Value::Int(1), Value::str("a"), Value::Float(0.5)],
                vec![Value::Int(2), Value::str("b"), Value::Float(1.5)],
            ],
        });
        // An empty batch is wire-legal (the server treats it as a no-op).
        roundtrip_request(&Request::Insert {
            id: 10,
            table: "part".into(),
            rows: vec![],
        });
    }

    #[test]
    fn response_frames_roundtrip() {
        roundtrip_response(&Response::Batch {
            id: 3,
            rows: vec![
                vec![Value::Int(1), Value::Null, Value::Float(2.5)],
                vec![Value::Date(9000), Value::str("hi"), Value::Bool(true)],
            ],
        });
        roundtrip_response(&Response::Done {
            id: 3,
            columns: vec!["revenue".into(), "n".into()],
            total_rows: 2,
            simulated_seconds: 0.25,
            estimated_seconds: 0.5,
            replans: 1,
        });
        roundtrip_response(&Response::Error {
            id: 0,
            code: ErrorCode::Protocol,
            message: "bad frame".into(),
        });
        roundtrip_response(&Response::Pong { nonce: 1 });
        roundtrip_response(&Response::InsertOk {
            id: 9,
            rows_inserted: 2,
            table_rows: 6007,
        });
    }

    #[test]
    fn insert_decode_is_defensive() {
        // Unnamed table.
        let mut e = Enc::new(TAG_INSERT);
        e.u64(1);
        e.str("");
        e.u32(0);
        assert_eq!(
            Request::decode(&e.buf),
            Err(ProtoError::Invalid("insert into unnamed table"))
        );

        // A row count that cannot fit the remaining bytes is rejected
        // before allocation.
        let mut e = Enc::new(TAG_INSERT);
        e.u64(1);
        e.str("t");
        e.u32(u32::MAX);
        assert_eq!(Request::decode(&e.buf), Err(ProtoError::Truncated));

        // Truncated mid-value.
        let mut body = Request::Insert {
            id: 2,
            table: "t".into(),
            rows: vec![vec![Value::Int(5)]],
        }
        .encode();
        body.truncate(body.len() - 3);
        assert_eq!(Request::decode(&body), Err(ProtoError::Truncated));

        // Trailing bytes after a complete message.
        let mut body = Request::Insert {
            id: 3,
            table: "t".into(),
            rows: vec![],
        }
        .encode();
        body.push(0);
        assert_eq!(Request::decode(&body), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn frame_io_roundtrip_and_clean_eof() {
        let req = Request::Ping { nonce: 42 };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        write_frame(&mut wire, &req.encode()).unwrap();
        let mut cursor = io::Cursor::new(wire);
        for _ in 0..2 {
            let body = read_frame(&mut cursor).unwrap().expect("a frame");
            assert_eq!(Request::decode(&body).unwrap(), req);
        }
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// Counts `write` calls; accepts everything.
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_is_one_write_and_refuses_unsendable_bodies() {
        let body = Request::Ping { nonce: 42 }.encode();
        let mut w = CountingWrite {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, &body).unwrap();
        assert_eq!(w.writes, 1, "length prefix and body leave together");
        assert_eq!(w.bytes[..4], (body.len() as u32).to_le_bytes());
        assert_eq!(w.bytes[4..], body[..]);

        for unsendable in [vec![], vec![0u8; MAX_FRAME_LEN as usize + 1]] {
            let err = write_frame(&mut w, &unsendable).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        assert_eq!(w.writes, 1, "nothing of a refused body is written");
    }

    #[test]
    fn batch_row_len_is_the_encoded_size() {
        let rows = vec![
            vec![Value::Int(1), Value::Null, Value::Float(2.5)],
            vec![Value::Date(9000), Value::str("héllo"), Value::Bool(true)],
            vec![],
        ];
        let predicted = BATCH_HEADER_LEN + rows.iter().map(|r| batch_row_len(r)).sum::<usize>();
        assert_eq!(Response::Batch { id: 3, rows }.encode().len(), predicted);
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        // EOF inside the header.
        let mut cursor = io::Cursor::new(vec![1u8, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Proto(ProtoError::Truncated))
        ));
        // EOF inside the payload.
        let mut cursor = io::Cursor::new(vec![10u8, 0, 0, 0, 1, 2]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Proto(ProtoError::Truncated))
        ));
        // Oversized length field: rejected before allocation.
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Proto(ProtoError::Oversized(_)))
        ));
        // Zero-length frame.
        let mut cursor = io::Cursor::new(vec![0u8, 0, 0, 0]);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameReadError::Proto(ProtoError::EmptyFrame))
        ));
    }

    #[test]
    fn decode_rejects_invariant_violations() {
        // Empty table list.
        let mut e = Enc::new(TAG_RUN);
        e.u64(1);
        e.u8(0);
        e.u64(0);
        e.u32(0); // zero tables
        assert_eq!(
            Request::decode(&e.buf),
            Err(ProtoError::Invalid("query with no tables"))
        );

        // Trailing bytes after a valid message.
        let mut body = Request::Ping { nonce: 5 }.encode();
        body.push(0xFF);
        assert_eq!(Request::decode(&body), Err(ProtoError::TrailingBytes(1)));

        // Hostile nesting depth: one deep chain of NOTs.
        let mut e = Enc::new(0);
        for _ in 0..(MAX_EXPR_DEPTH + 2) {
            e.u8(4); // Unary
            e.u8(0); // Not
        }
        let mut d = Dec::new(&e.buf[1..]);
        assert_eq!(d.expr(0), Err(ProtoError::TooDeep));

        // A count that cannot possibly fit the remaining bytes must be
        // rejected before allocation.
        let mut e = Enc::new(TAG_BATCH);
        e.u64(1);
        e.u32(u32::MAX); // claims 4 billion rows in an 13-byte frame
        assert_eq!(Response::decode(&e.buf), Err(ProtoError::Truncated));
    }

    #[test]
    fn unknown_tags_and_discriminants_are_typed() {
        assert_eq!(Request::decode(&[0x7F]), Err(ProtoError::UnknownTag(0x7F)));
        assert_eq!(Response::decode(&[0x02]), Err(ProtoError::UnknownTag(0x02)));
        // The retired hello tag stays unknown, not silently reassigned.
        assert_eq!(
            Request::decode(&[0x01, 0, 0, 0, 0]),
            Err(ProtoError::UnknownTag(1))
        );
        // 200 was never a code; 5 is the retired tenant-quota code.
        for value in [200, 5] {
            let mut e = Enc::new(TAG_ERROR);
            e.u64(0);
            e.u8(value);
            e.str("x");
            assert_eq!(
                Response::decode(&e.buf),
                Err(ProtoError::BadDiscriminant {
                    what: "error code",
                    value
                })
            );
        }
    }
}
