//! The long-lived TCP server: one warm context, many connections.
//!
//! ## Threading and locking model
//!
//! * One **accept thread** blocks on [`TcpListener::accept`] and spawns one
//!   **connection thread** per client.
//! * Every connection thread owns a private [`qob_core::Session`] (its
//!   options are per-connection state, mutated only by `set` requests on
//!   that connection — no lock needed) and shares the warm
//!   [`ServerContext`] through an `Arc`.
//! * Inside the shared context the database, statistics and workload are
//!   immutable after construction; the only mutable shared state is the
//!   ground-truth cache, which `qob-core` guards with a `parking_lot`
//!   mutex, and the served-queries counter (atomic).
//! * The server itself keeps a connection registry (id → peer address)
//!   behind a `parking_lot` `RwLock`: written on connect/disconnect, read
//!   by `stats` requests.
//!
//! Shutdown is cooperative: the `shutdown` request (or
//! [`ServerHandle::shutdown`]) sets a flag; connection threads poll it via
//! a read timeout, and the accept thread is woken by a loopback connect.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use qob_core::{ServerContext, Session};

use crate::protocol::{
    deallocated_response, error_response, history_response, metrics_response, outcomes_response,
    pong_response, prepared_response, result_response, session_error_response, set_response,
    shutdown_response, stats_response, trace_export_response, Request,
};

/// How the server is stood up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:4547` (port `0` picks a free port).
    pub addr: String,
    /// Whether the context came from a snapshot (reported by `stats` so
    /// clients can assert the warm path never regenerated).
    pub snapshot_loaded: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: DEFAULT_ADDR.to_owned(), snapshot_loaded: false }
    }
}

/// The default serve address (`qob serve` without `--addr`).
pub const DEFAULT_ADDR: &str = "127.0.0.1:4547";

/// Requests longer than this are rejected (and the connection closed) —
/// a memory guard against a client streaming an endless unterminated line.
const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// How often a blocked connection read wakes up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

struct ServerState {
    context: ServerContext,
    config: ServerConfig,
    shutdown: AtomicBool,
    connections: RwLock<HashMap<u64, String>>,
    next_connection_id: AtomicU64,
    started: Instant,
}

/// A running server: join it, or shut it down from the hosting thread.
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
    connection_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently open client connections.
    pub fn active_connections(&self) -> usize {
        self.state.connections.read().len()
    }

    /// True once the server has begun shutting down.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: stops accepting, then existing connection threads
    /// notice within their poll interval.
    pub fn shutdown(&self) {
        trigger_shutdown(&self.state, self.local_addr);
    }

    /// Blocks until the accept thread and every connection thread exit
    /// (i.e. until a `shutdown` request arrives or
    /// [`ServerHandle::shutdown`] was called).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        loop {
            let Some(handle) = self.connection_threads.lock().pop() else { break };
            let _ = handle.join();
        }
    }
}

fn trigger_shutdown(state: &ServerState, addr: SocketAddr) {
    if !state.shutdown.swap(true, Ordering::SeqCst) {
        // Wake the accept loop: it is blocked in accept(), so poke it with
        // a throwaway loopback connection.
        let _ = TcpStream::connect(addr);
    }
}

/// Binds `config.addr` and serves `context` until shutdown.  Returns as
/// soon as the listener is ready — queries can connect immediately.
pub fn serve(context: ServerContext, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let state = Arc::new(ServerState {
        context,
        config,
        shutdown: AtomicBool::new(false),
        connections: RwLock::new(HashMap::new()),
        next_connection_id: AtomicU64::new(1),
        started: Instant::now(),
    });
    let connection_threads = Arc::new(Mutex::new(Vec::new()));

    let accept_state = Arc::clone(&state);
    let accept_threads = Arc::clone(&connection_threads);
    let accept_thread = std::thread::Builder::new()
        .name("qob-accept".into())
        .spawn(move || accept_loop(listener, local_addr, accept_state, accept_threads))?;

    Ok(ServerHandle { local_addr, state, accept_thread: Some(accept_thread), connection_threads })
}

fn accept_loop(
    listener: TcpListener,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if state.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => {
                // Persistent failures (e.g. fd exhaustion) must not melt a
                // core busy-retrying accept().
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connect, or a client racing shutdown
        }
        let conn_state = Arc::clone(&state);
        let spawned = std::thread::Builder::new()
            .name(format!("qob-conn-{peer}"))
            .spawn(move || serve_connection(stream, peer, local_addr, conn_state));
        match spawned {
            Ok(handle) => {
                // Reap handles of finished connections so a long-lived
                // server's registry stays proportional to *open*
                // connections, not to every connection ever accepted.
                let mut threads = threads.lock();
                threads.retain(|t| !t.is_finished());
                threads.push(handle);
            }
            Err(_) => continue, // thread exhaustion: drop the connection
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    peer: SocketAddr,
    local_addr: SocketAddr,
    state: Arc<ServerState>,
) {
    let connection_id = state.next_connection_id.fetch_add(1, Ordering::Relaxed);
    state.connections.write().insert(connection_id, peer.to_string());
    let _ = run_connection(&stream, local_addr, &state);
    state.connections.write().remove(&connection_id);
}

/// What one bounded read step produced.
enum ReadStep {
    /// A complete line (newline stripped) is ready.
    Line,
    /// The peer closed the connection (a partial line may remain in `buf`).
    Eof,
    /// Read timeout elapsed with no data — a shutdown-poll tick.
    Poll,
    /// The line exceeded [`MAX_LINE_BYTES`] before its newline arrived.
    TooLong,
}

/// Reads towards the next newline into `buf`, never letting it grow past
/// [`MAX_LINE_BYTES`].  Works on the buffered reader directly so the bound
/// holds even against a client streaming bytes continuously (a plain
/// `read_line` would only surface between reads, i.e. never).
fn read_step(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> std::io::Result<ReadStep> {
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => return Ok(ReadStep::Eof),
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Ok(ReadStep::Poll)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return if buf.len() > MAX_LINE_BYTES {
                Ok(ReadStep::TooLong)
            } else {
                Ok(ReadStep::Line)
            };
        }
        let n = available.len();
        buf.extend_from_slice(available);
        reader.consume(n);
        if buf.len() > MAX_LINE_BYTES {
            return Ok(ReadStep::TooLong);
        }
    }
}

fn run_connection(
    stream: &TcpStream,
    local_addr: SocketAddr,
    state: &ServerState,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream.try_clone()?;
    let mut session = state.context.session();
    let mut buf = Vec::new();

    loop {
        match read_step(&mut reader, &mut buf)? {
            ReadStep::Line => {
                let line = String::from_utf8_lossy(&buf).into_owned();
                buf.clear();
                let mut out = String::new();
                let mut keep_open = respond_line(&mut out, state, &mut session, local_addr, &line);
                // Pipelining: a client may have batched several requests
                // into one packet.  Answer every complete line already
                // sitting in the read buffer — in arrival order — before
                // flushing, so a batch of N requests costs one syscall
                // round-trip instead of N.
                while keep_open {
                    let Some(pos) = reader.buffer().iter().position(|&b| b == b'\n') else {
                        break;
                    };
                    let line = String::from_utf8_lossy(&reader.buffer()[..pos]).into_owned();
                    reader.consume(pos + 1);
                    keep_open = respond_line(&mut out, state, &mut session, local_addr, &line);
                }
                writer.write_all(out.as_bytes())?;
                writer.flush()?;
                if !keep_open {
                    return Ok(());
                }
            }
            ReadStep::Eof => {
                if !buf.is_empty() {
                    // EOF in the middle of a line: answer it, then close.
                    let line = String::from_utf8_lossy(&buf).into_owned();
                    let mut out = String::new();
                    respond_line(&mut out, state, &mut session, local_addr, &line);
                    writer.write_all(out.as_bytes())?;
                    writer.flush()?;
                }
                return Ok(());
            }
            ReadStep::Poll => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            ReadStep::TooLong => {
                let response = error_response("invalid_request", "request line too long");
                writeln!(writer, "{response}")?;
                return Ok(());
            }
        }
    }
}

/// Handles one request line, appending its response (if any) to `out`;
/// returns whether the connection stays open.  The caller owns the write
/// and flush, so pipelined batches leave in one packet.
fn respond_line(
    out: &mut String,
    state: &ServerState,
    session: &mut Session,
    local_addr: SocketAddr,
    line: &str,
) -> bool {
    use std::fmt::Write as _;
    if line.trim().is_empty() {
        return true; // blank keep-alive lines are tolerated
    }
    let (response, keep_open) = match Request::parse(line.trim()) {
        Err(message) => (error_response("invalid_request", &message), true),
        Ok(request) => handle_request(state, session, local_addr, request),
    };
    let _ = writeln!(out, "{response}");
    keep_open
}

fn handle_request(
    state: &ServerState,
    session: &mut Session,
    local_addr: SocketAddr,
    request: Request,
) -> (crate::json::Json, bool) {
    match request {
        Request::Query { sql } => match session.run_script(&sql) {
            Ok(outcomes) => (outcomes_response(&outcomes), true),
            Err(e) => (session_error_response(&e), true),
        },
        Request::Explain { sql } => {
            // Explain is a per-request override, not a session state change.
            let mut explain_session = session.clone();
            explain_session.options.execute = false;
            match explain_session.run_script(&sql) {
                Ok(outcomes) => (outcomes_response(&outcomes), true),
                Err(e) => (session_error_response(&e), true),
            }
        }
        Request::Prepare { name, sql } => match session.prepare(&name, &sql) {
            Ok(params) => (prepared_response(&name, params), true),
            Err(e) => (session_error_response(&e), true),
        },
        Request::Execute { name, params } => match session.execute_prepared(&name, &params) {
            Ok(report) => (result_response(std::slice::from_ref(&report)), true),
            Err(e) => (session_error_response(&e), true),
        },
        Request::Deallocate { name } => match session.deallocate(&name) {
            Ok(()) => (deallocated_response(&name), true),
            Err(e) => (session_error_response(&e), true),
        },
        Request::Set { option, value } => match session.options.set(&option, &value) {
            Ok(()) => (set_response(&option, &value), true),
            Err(message) => (error_response("invalid_option", &message), true),
        },
        Request::Stats => (
            stats_response(
                &state.context,
                state.connections.read().len(),
                state.started.elapsed(),
                state.config.snapshot_loaded,
            ),
            true,
        ),
        Request::Metrics => (metrics_response(&state.context), true),
        Request::History { top } => (history_response(&state.context, top), true),
        Request::TraceExport => (trace_export_response(&state.context), true),
        Request::Ping => (pong_response(), true),
        Request::Shutdown => {
            trigger_shutdown(state, local_addr);
            (shutdown_response(), false)
        }
    }
}
