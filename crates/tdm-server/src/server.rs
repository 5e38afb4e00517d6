//! The TCP front-end: an acceptor thread plus a bounded pool of
//! connection-handler threads over one shared [`MiningService`].
//!
//! ## Lifecycle of a request
//!
//! 1. The acceptor hands the connection to a handler thread (or answers an
//!    `"overloaded"` error itself when every handler is busy and the
//!    hand-off queue is full — connection-level backpressure).
//! 2. The handler reads frames in a loop. Each frame is parsed, dispatched,
//!    and answered with exactly one response frame; malformed JSON or a bad
//!    request shape gets a typed `"error"` and the connection *stays open*
//!    (framing is self-synchronizing). An oversized length prefix gets a
//!    typed error and then the connection closes (the stream position is
//!    unrecoverable).
//! 3. A `"mine"` request passes the tenant gates in order — API key,
//!    in-flight quota, token bucket (quota first, so a refusal at the
//!    quota burns no rate-limit token) — then enters the shared service
//!    through the same admission gate and index cache in-process callers
//!    use, so wire requests share a database's cached index with each
//!    other and with in-process requests. `"deadline_ms"` becomes a
//!    [`CancelToken`] deadline checked inside the level loop.
//! 4. The handler decrements the active-connection gauge on the way out —
//!    the robustness suite asserts this returns to zero, so handler leaks
//!    are test failures, not slow deaths.
//!
//! [`CancelToken`]: tdm_core::CancelToken

use std::io::{self, BufReader};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tdm_core::session::Executor;
use tdm_core::{Alphabet, EventDb};
use tdm_serve::{
    AppendOutcome, IngestError, IngestTriggers, MiningRequest, MiningService, Priority,
    ServiceConfig, StreamIngest, MAX_STREAM_LEN,
};

use crate::json::{self, Value};
use crate::tenant::{TenantConfig, TenantRegistry};
use crate::wire::{self, codes, FrameError};

/// Builds the executor a handler mines with. `None` on [`ServerConfig`]
/// means every request runs on the engine through [`MiningService::submit`];
/// a factory's executor goes through [`MiningService::submit_with`] instead.
/// Tests inject spy executors here to observe the level loop from outside the
/// socket.
pub type ExecutorFactory = Arc<dyn Fn() -> Box<dyn Executor> + Send + Sync>;

/// Server sizing and policy.
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the tests' loopback
    /// harness relies on this).
    pub addr: String,
    /// Connection-handler threads. Connections beyond
    /// `handler_threads + backlog` are answered `"overloaded"` and closed.
    pub handler_threads: usize,
    /// Accepted connections that may wait for a free handler.
    pub backlog: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// Socket read timeout; doubles as the shutdown poll interval for idle
    /// connections.
    pub read_timeout: Duration,
    /// Sizing for the in-process [`MiningService`] underneath.
    pub service: ServiceConfig,
    /// The tenants this server will authenticate.
    pub tenants: Vec<TenantConfig>,
    /// Optional executor override for every mine request (tests/benches).
    pub executor_factory: Option<ExecutorFactory>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            handler_threads: 4,
            backlog: 16,
            max_frame: wire::MAX_FRAME,
            read_timeout: Duration::from_millis(100),
            service: ServiceConfig::default(),
            tenants: Vec::new(),
            executor_factory: None,
        }
    }
}

/// Monotonic connection/frame counters (a [`Server::counters`] snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Connections accepted and handed to a handler.
    pub connections: u64,
    /// Connections refused at the hand-off queue (answered `"overloaded"`).
    pub refused: u64,
    /// Request frames served (every frame gets exactly one response).
    pub frames: u64,
    /// Frames that failed framing or parsing (oversized, malformed JSON,
    /// bad request shape, unknown type).
    pub protocol_errors: u64,
}

struct ServerState {
    service: Arc<MiningService>,
    ingest: StreamIngest,
    tenants: TenantRegistry,
    alphabet: Alphabet,
    executor_factory: Option<ExecutorFactory>,
    max_frame: usize,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    connections: AtomicU64,
    refused: AtomicU64,
    frames: AtomicU64,
    protocol_errors: AtomicU64,
}

/// A running server: an acceptor thread, `handler_threads` connection
/// handlers, and the shared state. Dropping it (or calling
/// [`Server::shutdown`]) stops the acceptor, drains in-flight connections,
/// and joins every thread.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and handler pool, and returns immediately.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(MiningService::new(config.service));
        let state = Arc::new(ServerState {
            ingest: StreamIngest::new(Arc::clone(&service)),
            service,
            tenants: TenantRegistry::new(config.tenants),
            alphabet: Alphabet::latin26(),
            executor_factory: config.executor_factory,
            max_frame: config.max_frame,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });

        let (tx, rx) = sync_channel::<TcpStream>(config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let handlers = (0..config.handler_threads.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || handler_loop(&state, &rx))
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            let read_timeout = config.read_timeout;
            std::thread::spawn(move || accept_loop(&listener, &state, &tx, read_timeout))
        };

        Ok(Server {
            addr,
            state,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service underneath — e.g. to compare wire responses against
    /// in-process submissions of the same requests.
    pub fn service(&self) -> &Arc<MiningService> {
        &self.state.service
    }

    /// Connections currently inside a handler. Returns to 0 when every
    /// client has disconnected — the leak-accounting hook.
    pub fn active_connections(&self) -> usize {
        self.state.active_connections.load(Ordering::Acquire)
    }

    /// In-flight quota slots currently held across all tenants; 0 when idle.
    pub fn tenant_in_flight(&self) -> usize {
        self.state.tenants.total_in_flight()
    }

    /// Connection/frame counters since start.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            connections: self.state.connections.load(Ordering::Relaxed),
            refused: self.state.refused.load(Ordering::Relaxed),
            frames: self.state.frames.load(Ordering::Relaxed),
            protocol_errors: self.state.protocol_errors.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains in-flight connections, joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor's blocking `accept` with a wake-up
        // connection; it observes the flag and exits, dropping the sender.
        // The bound address may be unspecified (0.0.0.0/::) — which some
        // platforms refuse to connect to — so aim at loopback on the bound
        // port first, falling back to the literal address for listeners
        // bound to a specific non-loopback interface.
        let wake_timeout = Duration::from_millis(250);
        let loopback: SocketAddr = if self.addr.is_ipv6() {
            (Ipv6Addr::LOCALHOST, self.addr.port()).into()
        } else {
            (Ipv4Addr::LOCALHOST, self.addr.port()).into()
        };
        if TcpStream::connect_timeout(&loopback, wake_timeout).is_err() && loopback != self.addr {
            let _ = TcpStream::connect_timeout(&self.addr, wake_timeout);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for handler in self.handlers.drain(..) {
            let _ = handler.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    tx: &SyncSender<TcpStream>,
    read_timeout: Duration,
) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_nodelay(true);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                // Every handler is busy and the backlog is full: refuse at
                // the door with a typed error instead of queueing unbounded.
                state.refused.fetch_add(1, Ordering::Relaxed);
                let reply = wire::error_value(
                    codes::OVERLOADED,
                    "no connection handler available; retry after backoff",
                );
                let _ = wire::write_frame(&mut stream, reply.encode().as_bytes());
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping `tx` (by returning) disconnects the handler pool.
}

fn handler_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        // Hold the receiver lock only for the dequeue itself.
        let stream = match rx.lock().expect("connection queue").recv() {
            Ok(stream) => stream,
            Err(_) => return, // acceptor gone and queue drained
        };
        state.connections.fetch_add(1, Ordering::Relaxed);
        state.active_connections.fetch_add(1, Ordering::AcqRel);
        // A panic must not kill the handler thread (it would shrink the pool
        // for the rest of the process lifetime); the robustness suite feeds
        // this path hostile bytes on purpose.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            handle_connection(state, stream);
        }));
        state.active_connections.fetch_sub(1, Ordering::AcqRel);
        if outcome.is_err() {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    // Frames are read through a buffer, so a small frame costs one read of
    // the socket; replies go straight to the socket, one write per frame.
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    loop {
        match wire::read_frame(&mut reader, state.max_frame) {
            Ok(payload) => {
                state.frames.fetch_add(1, Ordering::Relaxed);
                let reply = dispatch_bytes(state, &payload);
                if wire::write_frame(&mut writer, reply.encode().as_bytes()).is_err() {
                    return;
                }
            }
            Err(FrameError::Idle) => {
                if state.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(FrameError::Oversized { declared, max }) => {
                // The stream position is unrecoverable (we won't skip
                // `declared` bytes); answer, then close.
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let reply = wire::error_value(
                    codes::OVERSIZED_FRAME,
                    format!("declared frame of {declared} bytes exceeds the {max}-byte cap"),
                );
                let _ = wire::write_frame(&mut writer, reply.encode().as_bytes());
                return;
            }
            Err(FrameError::Closed) => return,
            Err(FrameError::Truncated | FrameError::Io(_)) => {
                state.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Parses and serves one frame; infallible — every failure is a typed
/// `"error"` value.
fn dispatch_bytes(state: &ServerState, payload: &[u8]) -> Value {
    let text = match std::str::from_utf8(payload) {
        Ok(text) => text,
        Err(_) => {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return wire::error_value(codes::BAD_REQUEST, "frame is not UTF-8");
        }
    };
    let request = match json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return wire::error_value(codes::BAD_REQUEST, e.to_string());
        }
    };
    match dispatch(state, &request) {
        Ok(reply) => reply,
        Err(reply) => {
            state.protocol_errors.fetch_add(1, Ordering::Relaxed);
            reply
        }
    }
}

/// `Err` carries protocol-level refusals (counted as protocol errors);
/// `Ok` covers served requests *and* domain errors like overload or
/// deadline, which are healthy protocol exchanges.
fn dispatch(state: &ServerState, request: &Value) -> Result<Value, Value> {
    let kind = request
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"type\""))?;

    // Uniform authentication: every request type names its tenant.
    let tenant = request
        .get("tenant")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"tenant\""))?;
    let api_key = request
        .get("api_key")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"api_key\""))?;
    if let Err(denial) = state.tenants.authenticate(tenant, api_key) {
        return Err(denial.to_value());
    }

    match kind {
        "mine" => serve_mine(state, tenant, request),
        "stats" => Ok(serve_stats(state)),
        "register" => serve_register(state, tenant, request),
        "ingest" => serve_ingest(state, tenant, request),
        _ => Err(wire::error_value(
            codes::BAD_REQUEST,
            format!("unknown request type {kind:?}"),
        )),
    }
}

fn serve_mine(state: &ServerState, tenant: &str, request: &Value) -> Result<Value, Value> {
    // Quota before token bucket: a tenant at its quota is refused without
    // burning a rate-limit token (otherwise sustained quota pressure would
    // drain the bucket and rate-limit the client just as capacity frees
    // up). A rate-limited request pins its quota slot only for the bucket
    // check — the permit drops on the early return.
    let _quota = match state.tenants.take_quota(tenant) {
        Ok(permit) => permit,
        Err(denial) => return Ok(denial.to_value()),
    };
    if let Err(denial) = state.tenants.take_token(tenant) {
        return Ok(denial.to_value());
    }

    let db = Arc::new(request_db(state, request)?);
    let config =
        wire::config_from(request).map_err(|msg| wire::error_value(codes::BAD_REQUEST, msg))?;
    match request.get("backend").and_then(Value::as_str) {
        None | Some("auto") => {}
        Some(other) => {
            return Err(wire::error_value(
                codes::BAD_REQUEST,
                format!("unknown backend {other:?}: the only backend is \"auto\""),
            ))
        }
    }
    let priority = match request.get("priority").and_then(Value::as_str) {
        None | Some("normal") => Priority::Normal,
        Some("high") => Priority::High,
        Some(other) => {
            return Err(wire::error_value(
                codes::BAD_REQUEST,
                format!("unknown priority {other:?}"),
            ))
        }
    };

    let mut mining_request = MiningRequest::new(db, config).priority(priority);
    if let Some(deadline) = request.get("deadline_ms") {
        let ms = deadline.as_u64().ok_or_else(|| {
            wire::error_value(codes::BAD_REQUEST, "\"deadline_ms\" must be an integer")
        })?;
        mining_request = mining_request.deadline(Duration::from_millis(ms));
    }

    let outcome = match &state.executor_factory {
        None => state.service.submit(&mining_request),
        Some(factory) => {
            let mut executor = factory();
            state
                .service
                .submit_with(&mining_request, executor.as_mut())
        }
    };
    Ok(match outcome {
        Ok(response) => wire::mine_response_value(&response, &state.alphabet),
        Err(e) => wire::serve_error_value(&e),
    })
}

/// Upper bound on a generated workload's `"n"`, and so on the largest
/// database a request may name: the ingest layer's stream cap
/// ([`MAX_STREAM_LEN`], 4,000,000 letters), so a mined workload and a grown
/// stream share one bound. Inline `"events"` are bounded by the frame cap
/// (~1M letters); this keeps a named `"workload"` in the same ballpark — the
/// field is attacker-controlled, and an unbounded `n` would let one
/// authenticated frame demand a petabyte-scale allocation and OOM the whole
/// server. A stream's `"flush_count"` is capped by it too: a count trigger
/// above it could never fire.
pub const MAX_WORKLOAD_N: u64 = MAX_STREAM_LEN as u64;

/// Materializes the database a mine request names: inline `"events"`
/// letters, or a named `"workload"` from the paper's generators. Generator
/// preconditions (`n` bounded, `scale` in (0, 1], `persistence` in [0, 1))
/// are enforced here as typed errors — the generators assert them, and a
/// panic would drop the connection without a response.
fn request_db(state: &ServerState, request: &Value) -> Result<EventDb, Value> {
    match (request.get("events"), request.get("workload")) {
        (Some(events), None) => {
            let text = events.as_str().ok_or_else(|| {
                wire::error_value(codes::BAD_REQUEST, "\"events\" must be a string")
            })?;
            EventDb::from_str_symbols(&state.alphabet, text)
                .map_err(|e| wire::error_value(codes::BAD_REQUEST, e.to_string()))
        }
        (None, Some(spec)) => {
            let kind = spec
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "workload needs \"kind\""))?;
            let n = spec.get("n").and_then(Value::as_u64).unwrap_or(10_000);
            if n > MAX_WORKLOAD_N {
                return Err(wire::error_value(
                    codes::BAD_REQUEST,
                    format!("workload \"n\" of {n} exceeds the {MAX_WORKLOAD_N}-event cap"),
                ));
            }
            let n = n as usize;
            let seed = spec.get("seed").and_then(Value::as_u64).unwrap_or(2009);
            match kind {
                "paper" => {
                    let scale = spec.get("scale").and_then(Value::as_f64).unwrap_or(1.0);
                    // Negated comparison so NaN is refused too.
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(wire::error_value(
                            codes::BAD_REQUEST,
                            format!("workload \"scale\" must be in (0, 1], got {scale}"),
                        ));
                    }
                    Ok(tdm_workloads::paper_database_scaled(scale))
                }
                "uniform" => Ok(tdm_workloads::uniform_letters(n, seed)),
                "markov" => {
                    let persistence = spec
                        .get("persistence")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.6);
                    if !(0.0..1.0).contains(&persistence) {
                        return Err(wire::error_value(
                            codes::BAD_REQUEST,
                            format!(
                                "workload \"persistence\" must be in [0, 1), got {persistence}"
                            ),
                        ));
                    }
                    Ok(tdm_workloads::markov_letters(n, seed, persistence))
                }
                other => Err(wire::error_value(
                    codes::BAD_REQUEST,
                    format!("unknown workload kind {other:?}"),
                )),
            }
        }
        _ => Err(wire::error_value(
            codes::BAD_REQUEST,
            "exactly one of \"events\" or \"workload\" is required",
        )),
    }
}

fn serve_stats(state: &ServerState) -> Value {
    let mut v = wire::stats_value(&state.service.stats(), &state.ingest.stats());
    if let Value::Object(pairs) = &mut v {
        pairs.insert(0, ("type".into(), Value::str("stats")));
        pairs.push((
            "server".into(),
            Value::Object(vec![
                (
                    "active_connections".into(),
                    Value::u64(state.active_connections.load(Ordering::Acquire) as u64),
                ),
                (
                    "tenant_in_flight".into(),
                    Value::u64(state.tenants.total_in_flight() as u64),
                ),
                (
                    "connections".into(),
                    Value::u64(state.connections.load(Ordering::Relaxed)),
                ),
                (
                    "refused".into(),
                    Value::u64(state.refused.load(Ordering::Relaxed)),
                ),
                (
                    "frames".into(),
                    Value::u64(state.frames.load(Ordering::Relaxed)),
                ),
                (
                    "protocol_errors".into(),
                    Value::u64(state.protocol_errors.load(Ordering::Relaxed)),
                ),
            ]),
        ));
    }
    v
}

fn serve_register(state: &ServerState, tenant: &str, request: &Value) -> Result<Value, Value> {
    // Registration mutates shared service state (it seeds a stream), so it is
    // metered like `ingest`; only `mine` work takes a quota slot.
    if let Err(denial) = state.tenants.take_token(tenant) {
        return Ok(denial.to_value());
    }
    let stream = request
        .get("stream")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"stream\""))?;
    let seed = request
        .get("seed")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"seed\" events"))?;
    let db = EventDb::from_str_symbols(&state.alphabet, seed)
        .map_err(|e| wire::error_value(codes::BAD_REQUEST, e.to_string()))?;
    let config =
        wire::config_from(request).map_err(|msg| wire::error_value(codes::BAD_REQUEST, msg))?;
    let mut triggers = IngestTriggers::default();
    if let Some(count) = request.get("flush_count") {
        triggers.flush_count = count
            .as_u64()
            .filter(|&count| count <= MAX_WORKLOAD_N)
            .ok_or_else(|| {
                wire::error_value(
                    codes::BAD_REQUEST,
                    format!("stream {stream:?}: \"flush_count\" must be an integer of at most {MAX_WORKLOAD_N}"),
                )
            })? as usize;
    }
    if let Some(age) = request.get("flush_age_ms") {
        triggers.flush_age = Duration::from_millis(age.as_u64().ok_or_else(|| {
            wire::error_value(codes::BAD_REQUEST, "\"flush_age_ms\" must be an integer")
        })?);
    }
    match state
        .ingest
        .register(&stream_key(tenant, stream), db, config, triggers)
    {
        Ok(()) => Ok(Value::Object(vec![
            ("type".into(), Value::str("registered")),
            ("stream".into(), Value::str(stream)),
        ])),
        Err(e) => Err(ingest_error_value(&e, stream)),
    }
}

fn serve_ingest(state: &ServerState, tenant: &str, request: &Value) -> Result<Value, Value> {
    if let Err(denial) = state.tenants.take_token(tenant) {
        return Ok(denial.to_value());
    }
    let stream = request
        .get("stream")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"stream\""))?;
    let text = request
        .get("symbols")
        .and_then(Value::as_str)
        .ok_or_else(|| wire::error_value(codes::BAD_REQUEST, "missing \"symbols\""))?;
    let letters = EventDb::from_str_symbols(&state.alphabet, text)
        .map_err(|e| wire::error_value(codes::BAD_REQUEST, e.to_string()))?;
    let key = stream_key(tenant, stream);
    match state.ingest.append(&key, letters.symbols()) {
        Ok(AppendOutcome::Buffered { pending, deferred }) => Ok(Value::Object(vec![
            ("type".into(), Value::str("ingest")),
            ("outcome".into(), Value::str("buffered")),
            ("pending".into(), Value::u64(pending as u64)),
            ("deferred".into(), Value::Bool(deferred)),
        ])),
        Ok(AppendOutcome::Flushed(report)) => Ok(Value::Object(vec![
            ("type".into(), Value::str("ingest")),
            ("outcome".into(), Value::str("flushed")),
            ("window".into(), Value::u64(report.window)),
            ("epoch".into(), Value::u64(report.epoch)),
            ("symbols".into(), Value::u64(report.symbols as u64)),
            (
                "result".into(),
                wire::mine_response_value(&report.response, &state.alphabet),
            ),
        ])),
        Err(e) => Err(ingest_error_value(&e, stream)),
    }
}

/// The [`StreamIngest`] name of `tenant`'s stream `stream`: stream names are
/// per tenant, and the tenant's length prefix keeps the keys of any two
/// (tenant, stream) pairs apart (`("a:b", "c")` and `("a", "b:c")` differ).
fn stream_key(tenant: &str, stream: &str) -> String {
    format!("{}:{tenant}:{stream}", tenant.len())
}

/// The wire error for `e`, naming the client's own `stream` (never the
/// tenant-scoped key the ingest layer saw).
fn ingest_error_value(e: &IngestError, stream: &str) -> Value {
    match e {
        IngestError::UnknownTenant(_) => wire::error_value(
            codes::UNKNOWN_STREAM,
            format!("no stream registered as {stream:?}"),
        ),
        IngestError::DuplicateTenant(_) => wire::error_value(
            codes::BAD_REQUEST,
            format!("stream {stream:?} is already registered"),
        ),
        IngestError::TimedStream(_) => wire::error_value(
            codes::BAD_REQUEST,
            format!("stream {stream:?} carries timestamps; symbol appends cannot grow it"),
        ),
        IngestError::NoTrigger(_) => wire::error_value(
            codes::BAD_REQUEST,
            format!(
                "stream {stream:?} arms no trigger: set \"flush_count\" or \"flush_age_ms\" above 0"
            ),
        ),
        IngestError::StreamFull(_) => wire::error_value(
            codes::BAD_REQUEST,
            format!("stream {stream:?} would grow past the {MAX_STREAM_LEN}-letter stream cap"),
        ),
        IngestError::Core(e) => wire::error_value(codes::BAD_REQUEST, e.to_string()),
        IngestError::Serve(e) => wire::serve_error_value(e),
    }
}
