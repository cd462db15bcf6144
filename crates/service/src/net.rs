//! The network front-end: [`NetServer`] serves the wire protocol of
//! [`proto`](crate::proto) over TCP, multiplexing connections onto one
//! shared [`QueryService`].
//!
//! # Connection lifecycle
//!
//! ```text
//!             accept            TAG_RUN ...
//! client ───► acceptor ───► [reader thread] ──mpsc──► [executor thread]
//!   │           │ (over limit: Error frame,             │ validate vs catalog
//!   │           │  close)                               │ QueryService::execute
//!   │    EOF / io error                                 ▼
//!   └──────► reader cancels the in-flight     Batch* · Done | Error
//!            QueryToken and signals EOF       (one write per reply)
//! ```
//!
//! Each connection gets **two** threads: a *reader* that blocks on
//! frame reads and an *executor* that runs queries and writes
//! responses.  The split is what makes disconnect propagation work
//! with blocking I/O: while the executor is deep inside a query, the
//! reader is parked on `read()`, so the moment the client goes away
//! (EOF or reset) the reader cancels the in-flight [`QueryToken`] and
//! the query stops at its next morsel boundary — with the engine's
//! usual no-trace hygiene (nothing published to plan cache or
//! feedback).
//!
//! # The socket is written once per reply
//!
//! Accepted sockets run with `TCP_NODELAY`, and the executor queues a
//! reply's frames in one buffer that it writes out when the reply ends
//! — or earlier whenever 64 KiB are waiting, so a long reply streams and
//! a dead peer is noticed mid-reply.  A point reply (`Batch` + `Done`)
//! is one `write` and one segment; written frame by frame with Nagle's
//! algorithm on, the same reply waited ≈ 44 ms on the client's delayed
//! ACK.  Both sides read through a `BufReader`, so a frame's header and
//! body (and a short reply's `Batch` and `Done`) cost one `read`.
//! `Batch` frames close at [`NetServerConfig::batch_rows`] rows or
//! 1 MiB, whichever comes first: a frame never passes [`MAX_FRAME_LEN`]
//! because its rows carry long strings, and a single row that cannot
//! fit one gets a typed [`ErrorCode::Internal`] instead of a frame the
//! client must reject.
//!
//! Malformed bytes never panic the server and never leak an execution
//! slot: frames are decoded defensively ([`ProtoError`]), the peer gets
//! one typed [`ErrorCode::Protocol`] reply, and the connection closes.
//! The server adds no admission gate of its own: the service's slots,
//! queue and timeout are the one bound on in-flight work.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::iter::Peekable;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use rqo_core::{QueryToken, StopReason};
use rqo_optimizer::Query;
use rqo_storage::Value;

use crate::proto::{
    batch_row_len, read_frame, write_frame, ErrorCode, FrameReadError, ProtoError, Request,
    Response, RunMode, BATCH_HEADER_LEN, DEFAULT_BATCH_ROWS, MAX_FRAME_LEN,
};
use crate::service::{QueryService, ServiceError};

/// Configuration for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Maximum simultaneously open connections; excess connections get
    /// an [`ErrorCode::ConnectionLimit`] frame and are closed.
    pub max_connections: usize,
    /// Rows per [`Response::Batch`] frame when streaming results.
    pub batch_rows: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 512,
            batch_rows: DEFAULT_BATCH_ROWS,
        }
    }
}

impl NetServerConfig {
    /// Sets the connection cap.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Sets the streaming batch size (rows per batch frame).
    pub fn with_batch_rows(mut self, n: usize) -> Self {
        self.batch_rows = n.max(1);
        self
    }
}

/// Bytes of queued reply frames at which a connection writes them out
/// without waiting for the reply to end.
const FLUSH_BYTES: usize = 64 * 1024;

/// Encoded size at which a `Batch` frame closes even though it holds
/// fewer than `batch_rows` rows: rows can carry strings of any length,
/// and a frame past [`MAX_FRAME_LEN`] is one the client must reject.
const MAX_BATCH_BYTES: usize = 1024 * 1024;

/// Pause before retrying a failed `accept`.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// A point-in-time snapshot of the network layer's counters.  The
/// query-level counters ([`ServiceStats`](crate::ServiceStats)) live on
/// the service underneath; these count wire-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted and handed to a session.
    pub accepted: u64,
    /// Connections turned away at the connection cap.
    pub rejected_conn_limit: u64,
    /// Currently open connections (gauge).
    pub active: u64,
    /// Malformed frames answered with [`ErrorCode::Protocol`].
    pub protocol_errors: u64,
    /// Queries answered with `Batch* + Done`.
    pub queries_ok: u64,
    /// Queries answered with a typed [`Response::Error`].
    pub queries_err: u64,
    /// In-flight queries cancelled because their client disconnected.
    pub disconnect_cancels: u64,
    /// Insert batches answered with [`Response::InsertOk`].
    pub inserts_ok: u64,
    /// Insert batches answered with a typed [`Response::Error`].
    pub inserts_err: u64,
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accepted={} rejected_conn_limit={} active={} protocol_errors={} \
             queries_ok={} queries_err={} disconnect_cancels={} \
             inserts_ok={} inserts_err={}",
            self.accepted,
            self.rejected_conn_limit,
            self.active,
            self.protocol_errors,
            self.queries_ok,
            self.queries_err,
            self.disconnect_cancels,
            self.inserts_ok,
            self.inserts_err,
        )
    }
}

#[derive(Default)]
struct NetStatsCells {
    accepted: AtomicU64,
    rejected_conn_limit: AtomicU64,
    active: AtomicU64,
    protocol_errors: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    disconnect_cancels: AtomicU64,
    inserts_ok: AtomicU64,
    inserts_err: AtomicU64,
}

impl NetStatsCells {
    fn snapshot(&self) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            rejected_conn_limit: self.rejected_conn_limit.load(Ordering::SeqCst),
            active: self.active.load(Ordering::SeqCst),
            protocol_errors: self.protocol_errors.load(Ordering::SeqCst),
            queries_ok: self.queries_ok.load(Ordering::SeqCst),
            queries_err: self.queries_err.load(Ordering::SeqCst),
            disconnect_cancels: self.disconnect_cancels.load(Ordering::SeqCst),
            inserts_ok: self.inserts_ok.load(Ordering::SeqCst),
            inserts_err: self.inserts_err.load(Ordering::SeqCst),
        }
    }
}

struct NetInner {
    service: QueryService,
    config: NetServerConfig,
    stats: NetStatsCells,
    /// Stream clones of open connections, for shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    shutting_down: AtomicBool,
}

impl NetInner {
    fn conns_lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What the reader thread forwards to the executor thread.
enum ConnEvent {
    /// A well-formed request.
    Req(Request),
    /// The peer broke the protocol; reply and close.
    Bad(ProtoError),
    /// The peer disconnected (EOF or transport error).
    Eof,
}

/// A TCP server speaking the `proto` wire format over a shared
/// [`QueryService`].  Dropping the server shuts it down (acceptor
/// stopped, open connections closed, in-flight queries cancelled).
pub struct NetServer {
    inner: Arc<NetInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts accepting.
    pub fn bind(
        service: QueryService,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(NetInner {
            service,
            config,
            stats: NetStatsCells::default(),
            conns: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
        });
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let inner = Arc::clone(&inner);
            let handles = Arc::clone(&conn_handles);
            std::thread::Builder::new()
                .name("rqo-net-acceptor".into())
                .spawn(move || accept_loop(listener, inner, handles))?
        };
        Ok(NetServer {
            inner,
            addr: local,
            acceptor: Some(acceptor),
            conn_handles,
        })
    }

    /// The bound address (use after binding port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this server fronts.
    pub fn service(&self) -> &QueryService {
        &self.inner.service
    }

    /// Wire-level counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.snapshot()
    }

    /// Stops accepting, closes every open connection (cancelling
    /// in-flight queries via their tokens), and joins all threads.
    pub fn shutdown(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of `accept()` with a throwaway
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Closing the sockets EOFs every reader, which cancels
        // in-flight tokens and unwinds the executors.
        for (_, stream) in self.inner.conns_lock().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles = std::mem::take(&mut *lock_handles(&self.conn_handles));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_handles(
    handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> std::sync::MutexGuard<'_, Vec<JoinHandle<()>>> {
    handles.lock().unwrap_or_else(PoisonError::into_inner)
}

fn accept_loop(
    listener: TcpListener,
    inner: Arc<NetInner>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_conn_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                // `accept` fails for as long as the process is out of
                // file descriptors; retrying at once would pin a core.
                std::thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Replies are written whole (`ReplyWriter`), so there is nothing
        // for Nagle's algorithm to coalesce — only latency for it to add.
        // Set before the stream is cloned: the option is the socket's.
        let _ = stream.set_nodelay(true);
        let active = inner.stats.active.load(Ordering::SeqCst);
        if active as usize >= inner.config.max_connections {
            inner
                .stats
                .rejected_conn_limit
                .fetch_add(1, Ordering::SeqCst);
            let mut stream = stream;
            let reply = Response::Error {
                id: 0,
                code: ErrorCode::ConnectionLimit,
                message: "connection limit reached".into(),
            };
            let _ = write_frame(&mut stream, &reply.encode());
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        inner.stats.accepted.fetch_add(1, Ordering::SeqCst);
        inner.stats.active.fetch_add(1, Ordering::SeqCst);
        let conn_id = next_conn_id;
        next_conn_id += 1;
        if let Ok(clone) = stream.try_clone() {
            inner.conns_lock().insert(conn_id, clone);
        }
        let conn_inner = Arc::clone(&inner);
        let spawned = std::thread::Builder::new()
            .name(format!("rqo-net-conn-{conn_id}"))
            .spawn(move || {
                // The executor must never bring the server down: a
                // panic that escapes a query (already accounted by the
                // service's `panicked` counter) ends this connection
                // only.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    serve_connection(&conn_inner, conn_id, stream)
                }));
                conn_inner.conns_lock().remove(&conn_id);
                conn_inner.stats.active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut guard = lock_handles(&handles);
                // Reap finished connections so the vec stays bounded
                // over a long-lived server.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(_) => {
                inner.conns_lock().remove(&conn_id);
                inner.stats.active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// The executor side of one connection; spawns and joins its reader.
fn serve_connection(inner: &Arc<NetInner>, conn_id: u64, stream: TcpStream) {
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let (tx, rx): (Sender<ConnEvent>, Receiver<ConnEvent>) = channel();
    // The in-flight query's token, shared with the reader so a
    // disconnect can cancel it while the executor is blocked inside
    // the service.
    let in_flight: Arc<Mutex<Option<QueryToken>>> = Arc::new(Mutex::new(None));
    let reader = {
        let inner = Arc::clone(inner);
        let in_flight = Arc::clone(&in_flight);
        std::thread::Builder::new()
            .name(format!("rqo-net-read-{conn_id}"))
            .spawn(move || read_loop(reader_stream, tx, in_flight, inner))
    };
    let reader = match reader {
        Ok(h) => h,
        Err(_) => return,
    };
    executor_loop(inner, stream, rx, &in_flight);
    let _ = reader.join();
}

/// Blocks on frame reads; forwards decoded requests, reports protocol
/// errors, and turns EOF/transport failure into cancellation of the
/// in-flight query.
fn read_loop(
    stream: TcpStream,
    tx: Sender<ConnEvent>,
    in_flight: Arc<Mutex<Option<QueryToken>>>,
    inner: Arc<NetInner>,
) {
    // Buffered, so a frame's header and body cost one `read`, not two.
    let mut stream = BufReader::new(stream);
    loop {
        match read_frame(&mut stream) {
            Ok(Some(body)) => match Request::decode(&body) {
                Ok(req) => {
                    if tx.send(ConnEvent::Req(req)).is_err() {
                        return; // executor gone
                    }
                }
                Err(e) => {
                    let _ = tx.send(ConnEvent::Bad(e));
                    return;
                }
            },
            Ok(None) | Err(FrameReadError::Io(_)) => {
                // Client disconnected (cleanly or not): cancel whatever
                // is running so the slot frees at the next morsel.
                let token = in_flight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take();
                if let Some(token) = token {
                    token.cancel();
                    inner
                        .stats
                        .disconnect_cancels
                        .fetch_add(1, Ordering::SeqCst);
                }
                let _ = tx.send(ConnEvent::Eof);
                return;
            }
            Err(FrameReadError::Proto(e)) => {
                let _ = tx.send(ConnEvent::Bad(e));
                return;
            }
        }
    }
}

/// Processes requests serially and writes responses.
fn executor_loop(
    inner: &NetInner,
    stream: TcpStream,
    rx: Receiver<ConnEvent>,
    in_flight: &Arc<Mutex<Option<QueryToken>>>,
) {
    let mut out = ReplyWriter::with_capacity(FLUSH_BYTES, stream);
    while let Ok(event) = rx.recv() {
        match event {
            ConnEvent::Req(Request::Ping { nonce }) => {
                if send(&mut out, &Response::Pong { nonce }).is_err() {
                    break;
                }
            }
            ConnEvent::Req(Request::Run {
                id,
                mode,
                deadline_ms,
                query,
            }) => {
                if !handle_run(inner, &mut out, in_flight, id, mode, deadline_ms, query) {
                    break;
                }
            }
            ConnEvent::Req(Request::Insert { id, table, rows }) => {
                if !handle_insert(inner, &mut out, id, &table, rows) {
                    break;
                }
            }
            ConnEvent::Bad(e) => {
                inner.stats.protocol_errors.fetch_add(1, Ordering::SeqCst);
                let _ = send(
                    &mut out,
                    &Response::Error {
                        id: 0,
                        code: ErrorCode::Protocol,
                        message: e.to_string(),
                    },
                );
                break;
            }
            ConnEvent::Eof => break,
        }
    }
    let _ = out.get_ref().shutdown(Shutdown::Both);
}

/// Runs one query end to end; returns `false` if the connection is
/// unwritable and should close.
fn handle_run(
    inner: &NetInner,
    out: &mut ReplyWriter,
    in_flight: &Arc<Mutex<Option<QueryToken>>>,
    id: u64,
    mode: RunMode,
    deadline_ms: u64,
    query: Query,
) -> bool {
    let fail = |out: &mut ReplyWriter, code: ErrorCode, message: String| {
        inner.stats.queries_err.fetch_add(1, Ordering::SeqCst);
        send(out, &Response::Error { id, code, message }).is_ok()
    };

    // Validate against the catalog before spending an admission slot:
    // a query the optimizer cannot plan (unknown tables/columns, tables
    // with no FK path between them) or the executor cannot evaluate (an
    // ill-typed predicate or aggregate input) is a client error, not a
    // server panic.
    if let Err(msg) = query.validate(&inner.service.engine().catalog()) {
        return fail(out, ErrorCode::BadQuery, msg);
    }

    let token = if deadline_ms > 0 {
        QueryToken::with_deadline(Duration::from_millis(deadline_ms))
    } else {
        QueryToken::new()
    };
    *in_flight.lock().unwrap_or_else(PoisonError::into_inner) = Some(token.clone());

    let result = catch_unwind(AssertUnwindSafe(|| {
        inner.service.execute(&query, &token, mode.into())
    }));

    // Clear the in-flight slot; the reader may already have taken it
    // (disconnect), which is fine — the token is per-query.
    in_flight
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();

    match result {
        Ok(Ok(ran)) => {
            let replans = ran.replans() as u64;
            let outcome = ran.outcome;
            let total_rows = outcome.rows.len() as u64;
            let batch_rows = inner.config.batch_rows.max(1);
            let mut rows = outcome.rows.into_iter().peekable();
            while rows.peek().is_some() {
                let (batch, frame_len) = take_batch(&mut rows, batch_rows);
                if frame_len > MAX_FRAME_LEN as usize {
                    return fail(
                        out,
                        ErrorCode::Internal,
                        format!("a result row of {frame_len} encoded bytes exceeds the frame cap"),
                    );
                }
                if push(out, &Response::Batch { id, rows: batch }).is_err() {
                    return false;
                }
            }
            inner.stats.queries_ok.fetch_add(1, Ordering::SeqCst);
            send(
                out,
                &Response::Done {
                    id,
                    columns: outcome.columns,
                    total_rows,
                    simulated_seconds: outcome.simulated_seconds,
                    estimated_seconds: outcome.estimated_seconds,
                    replans,
                },
            )
            .is_ok()
        }
        Ok(Err(e)) => {
            let code = match e {
                ServiceError::QueueFull => ErrorCode::QueueFull,
                ServiceError::QueueTimeout => ErrorCode::QueueTimeout,
                ServiceError::Stopped(StopReason::Cancelled) => ErrorCode::Cancelled,
                ServiceError::Stopped(StopReason::DeadlineExceeded) => ErrorCode::DeadlineExceeded,
            };
            fail(out, code, e.to_string())
        }
        Err(_) => fail(out, ErrorCode::Internal, "query execution panicked".into()),
    }
}

/// Ingests one insert batch; returns `false` if the connection is
/// unwritable and should close.
///
/// Inserts run on the connection's executor thread, straight into
/// [`Engine::insert_rows`](crate::Engine::insert_rows), and a panic
/// inside the storage layer ends the batch with a typed
/// [`ErrorCode::Internal`] — never the server.
fn handle_insert(
    inner: &NetInner,
    out: &mut ReplyWriter,
    id: u64,
    table: &str,
    rows: Vec<Vec<Value>>,
) -> bool {
    let fail = |out: &mut ReplyWriter, code: ErrorCode, message: String| {
        inner.stats.inserts_err.fetch_add(1, Ordering::SeqCst);
        send(out, &Response::Error { id, code, message }).is_ok()
    };

    let engine = inner.service.engine();
    let result = catch_unwind(AssertUnwindSafe(|| engine.insert_rows(table, &rows)));
    match result {
        Ok(Ok(summary)) => {
            inner.stats.inserts_ok.fetch_add(1, Ordering::SeqCst);
            send(
                out,
                &Response::InsertOk {
                    id,
                    rows_inserted: summary.rows_inserted as u64,
                    table_rows: summary.table_rows as u64,
                },
            )
            .is_ok()
        }
        Ok(Err(e)) => fail(out, ErrorCode::BadQuery, e.to_string()),
        Err(_) => fail(out, ErrorCode::Internal, "insert panicked".into()),
    }
}

/// The write side of one connection.  Frames queue in its buffer and
/// reach the socket when a reply ends ([`send`]) — a point reply's
/// `Batch` and `Done` are one `write` and one segment — or earlier once
/// [`FLUSH_BYTES`] are waiting, so a long reply streams and a peer that
/// went away is noticed mid-reply.  A frame larger than the buffer goes
/// straight to the socket.
type ReplyWriter = BufWriter<TcpStream>;

/// Queues one frame of a reply that has more to come.
fn push(out: &mut ReplyWriter, resp: &Response) -> io::Result<()> {
    write_frame(out, &resp.encode())
}

/// Queues the last frame of a reply and writes the reply out.
fn send(out: &mut ReplyWriter, resp: &Response) -> io::Result<()> {
    push(out, resp)?;
    out.flush()
}

/// Takes the rows of the next `Batch` frame off `rows`: up to
/// `batch_rows` of them, fewer when the next row would carry the frame
/// past [`MAX_BATCH_BYTES`], and always at least one.  Returns them with
/// the frame's encoded length, which passes `MAX_BATCH_BYTES` only for a
/// single row that large.
fn take_batch(
    rows: &mut Peekable<impl Iterator<Item = Vec<Value>>>,
    batch_rows: usize,
) -> (Vec<Vec<Value>>, usize) {
    let mut batch = Vec::new();
    let mut frame_len = BATCH_HEADER_LEN;
    while let Some(row) = rows.peek() {
        let row_len = batch_row_len(row);
        if batch.len() == batch_rows || (!batch.is_empty() && frame_len + row_len > MAX_BATCH_BYTES)
        {
            break;
        }
        frame_len += row_len;
        batch.extend(rows.next());
    }
    (batch, frame_len)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Why a [`NetClient`] call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes violated the protocol (or the connection
    /// closed mid-reply).
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameReadError> for ClientError {
    fn from(e: FrameReadError) -> Self {
        match e {
            FrameReadError::Io(e) => ClientError::Io(e),
            FrameReadError::Proto(e) => ClientError::Proto(e),
        }
    }
}

/// A successful query's reply, reassembled from its batch stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Result rows, in result order.
    pub rows: Vec<Vec<Value>>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Simulated execution cost in seconds.
    pub simulated_seconds: f64,
    /// The optimizer's estimate in seconds.
    pub estimated_seconds: f64,
    /// Mid-query re-plans.
    pub replans: u64,
}

/// A blocking client for the wire protocol: one request at a time over
/// one TCP connection.  Used by tests, the bench driver, and
/// `rqo_serve --connect`.
pub struct NetClient {
    /// Reads are buffered (a reply's `Batch` and `Done` arrive in one
    /// `read`); requests are written to the stream underneath.
    stream: BufReader<TcpStream>,
    next_id: u64,
}

impl NetClient {
    /// Connects to a [`NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(NetClient {
            stream: BufReader::new(stream),
            next_id: 1,
        })
    }

    /// Round-trips a ping.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let nonce = self.next_id;
        self.next_id += 1;
        write_frame(self.stream.get_mut(), &Request::Ping { nonce }.encode())?;
        match self.recv()? {
            Response::Pong { nonce: n } if n == nonce => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Runs `query` and reassembles the streamed reply.
    pub fn run(&mut self, query: &Query) -> Result<QueryReply, ClientError> {
        self.run_mode(query, RunMode::Run, 0)
    }

    /// Runs `query` under `mode` with an optional deadline
    /// (`deadline_ms == 0` means none).
    pub fn run_mode(
        &mut self,
        query: &Query,
        mode: RunMode,
        deadline_ms: u64,
    ) -> Result<QueryReply, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Run {
            id,
            mode,
            deadline_ms,
            query: query.clone(),
        };
        write_frame(self.stream.get_mut(), &req.encode())?;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        loop {
            match self.recv()? {
                Response::Batch {
                    id: rid,
                    rows: mut batch,
                } if rid == id => {
                    rows.append(&mut batch);
                }
                Response::Done {
                    id: rid,
                    columns,
                    total_rows,
                    simulated_seconds,
                    estimated_seconds,
                    replans,
                } if rid == id => {
                    if total_rows != rows.len() as u64 {
                        return Err(ClientError::Proto(ProtoError::Invalid(
                            "row count mismatch between batches and summary",
                        )));
                    }
                    return Ok(QueryReply {
                        rows,
                        columns,
                        simulated_seconds,
                        estimated_seconds,
                        replans,
                    });
                }
                Response::Error { code, message, .. } => {
                    return Err(ClientError::Server { code, message })
                }
                other => return Err(unexpected(other)),
            }
        }
    }

    /// Appends `rows` to `table`; returns `(rows_inserted, table_rows)`
    /// on success.  The batch is atomic server-side: a schema violation
    /// anywhere in it rejects the whole batch.
    pub fn insert(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<(u64, u64), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request::Insert {
            id,
            table: table.to_string(),
            rows,
        };
        write_frame(self.stream.get_mut(), &req.encode())?;
        match self.recv()? {
            Response::InsertOk {
                id: rid,
                rows_inserted,
                table_rows,
            } if rid == id => Ok((rows_inserted, table_rows)),
            other => Err(unexpected(other)),
        }
    }

    /// Sends raw bytes down the socket (for malformed-frame tests).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.get_mut().write_all(bytes)
    }

    /// Reads one response frame.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream)? {
            Some(body) => Response::decode(&body).map_err(ClientError::Proto),
            None => Err(ClientError::Proto(ProtoError::Truncated)),
        }
    }

    /// The underlying stream (for tests that need to half-close or
    /// drop abruptly).
    pub fn stream(&self) -> &TcpStream {
        self.stream.get_ref()
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message, .. } => ClientError::Server { code, message },
        _ => ClientError::Proto(ProtoError::Invalid("response for a different request")),
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use rqo_datagen::{TpchConfig, TpchData};
    use rqo_exec::AggExpr;

    use super::*;
    use crate::service::hold;
    use crate::{Engine, ServiceConfig};

    fn poll_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Dropping the TCP connection while a query executes cancels it
    /// through its [`QueryToken`], with the engine's no-trace hygiene and
    /// balanced counters.  The service holds the query, slot in hand,
    /// until its token fires, so the disconnect always lands mid-query.
    #[test]
    fn disconnect_mid_query_cancels_via_token_with_no_trace() {
        let data = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 7,
        });
        let service = Engine::new(data.into_catalog()).into_service(ServiceConfig::default());
        let server = NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default())
            .expect("bind loopback");
        let service = server.service().clone();
        let engine = service.engine().clone();
        hold::next(&service);

        // Fire the query without waiting for its reply, then watch it get
        // admitted.
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        let req = Request::Run {
            id: 1,
            mode: RunMode::Run,
            deadline_ms: 0,
            query: Query::over(&["lineitem", "orders", "part"]).aggregate(AggExpr::count_star("n")),
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &req.encode()).unwrap();
        client.send_raw(&frame).expect("send run");
        poll_until("query admitted", || service.stats().admitted == 1);

        // Hard disconnect while the query runs.
        client.stream().shutdown(Shutdown::Both).expect("shutdown");
        drop(client);

        // The reader notices EOF and cancels the token, and the query
        // stops at its next poll.
        poll_until("cancellation", || service.stats().cancelled == 1);
        poll_until("connection drained", || server.stats().active == 0);

        let stats = service.stats();
        assert_eq!(stats.completed, 0, "query must not have finished: {stats}");
        assert!(stats.slots_balanced(), "execution slot leaked: {stats}");
        assert_eq!(stats.panicked, 0, "query panicked: {stats}");
        assert_eq!(server.stats().disconnect_cancels, 1, "{}", server.stats());

        // No-trace hygiene: the cancelled run published nothing.
        assert_eq!(
            engine.cache_stats().entries,
            0,
            "cancelled query inserted a plan"
        );
        assert!(
            engine.feedback().snapshot().is_empty(),
            "cancelled query recorded feedback"
        );

        // And the engine is unharmed: a fresh connection runs a query.
        let mut retry = NetClient::connect(server.local_addr()).expect("reconnect");
        let short = Query::over(&["part"]).aggregate(AggExpr::count_star("n"));
        let reply = retry.run(&short).expect("server still serves");
        assert_eq!(reply.rows.len(), 1);
    }
}
