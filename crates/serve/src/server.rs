//! The placement daemon: a framed TCP front-end over
//! `Arc<PlacementEngine>` plus a pausable background rebalance loop.
//!
//! One accept thread hands each connection to its own handler thread
//! (the engine is `&self`-only and wait-free on reads, so handlers
//! simply call it concurrently). The daemon — not its clients — owns
//! the periodic rebalance pass: a loop thread runs
//! `PlacementEngine::rebalance` every interval, pausable over the
//! control verbs, with hysteresis (move cooldown, per-pass moved-GB
//! cap) supplied by the loop's [`RebalancePolicy`]. Callers connect and
//! churn; the fleet self-corrects underneath.
//!
//! Lifecycle: **running** → (`Drain`) **draining** (placements
//! refused, releases complete) → (`Shutdown`) **stopped** (accept
//! loop, handlers and rebalance loop all joined). The daemon tracks
//! every placement it admits in a ticket registry, so release-by-ticket
//! needs no client-side state beyond the `u64`, and shutdown can assert
//! registry-vs-occupancy agreement.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use vc_engine::{Placed, PlacementEngine, RebalancePolicy, RebalanceTotals};
use vc_sync::Counter;

use crate::rpc::{
    ControlAck, ErrorCode, FitInfo, NodeUse, OccupancyInfo, PlaceOutcome, PlacedInfo, Request,
    Response, RpcError, ServiceStats,
};
use crate::wire::{read_frame, write_frame};

/// How the daemon's background rebalance loop runs.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Sleep between passes.
    pub interval: Duration,
    /// Policy each pass runs with — including the hysteresis knobs
    /// ([`RebalancePolicy::cooldown_passes`],
    /// [`RebalancePolicy::max_moved_gb_per_pass`]) that keep a periodic
    /// loop from ping-ponging containers or saturating the migration
    /// bandwidth.
    pub policy: RebalancePolicy,
    /// Start with the loop paused (resume over the control verb).
    pub start_paused: bool,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            interval: Duration::from_millis(100),
            policy: RebalancePolicy::default()
                .with_cooldown_passes(8)
                .with_moved_gb_cap(1.0),
            start_paused: false,
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back with
    /// [`PlacementServer::local_addr`]).
    pub addr: String,
    /// Background rebalance loop; `None` serves without one (manual
    /// `rebalance()` callers only).
    pub rebalance: Option<LoopConfig>,
    /// Shared secret required by the control verbs
    /// (pause/resume/drain/shutdown); `None` leaves them open. Data
    /// verbs (place/release/stats/...) never require it — the token
    /// guards the daemon's lifecycle, not its service.
    pub control_token: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            rebalance: None,
            control_token: None,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Enables the background rebalance loop.
    pub fn with_rebalance(mut self, cfg: LoopConfig) -> Self {
        self.rebalance = Some(cfg);
        self
    }

    /// Requires this token on every control verb.
    pub fn with_control_token(mut self, token: impl Into<String>) -> Self {
        self.control_token = Some(token.into());
        self
    }
}

/// Rebalance-loop control shared between handlers and the loop thread.
struct LoopControl {
    paused: bool,
    stop: bool,
}

/// State shared by the accept thread, handler threads and the loop.
struct Shared {
    engine: Arc<PlacementEngine>,
    /// Ticket → the engine handle that releases it. Every placement the
    /// daemon admits is registered here and removed on release, so
    /// after shutdown the registry and the engine's occupancy agree
    /// exactly on what is still resident.
    registry: Mutex<HashMap<u64, Placed>>,
    draining: AtomicBool,
    shutting_down: AtomicBool,
    /// Shared secret the control verbs must carry; `None` = open.
    control_token: Option<String>,
    has_loop: bool,
    loop_control: Mutex<LoopControl>,
    loop_cv: Condvar,
    loop_totals: Mutex<RebalanceTotals>,
    requests: Counter,
    connections: Counter,
    protocol_errors: Counter,
    /// Clones of the accepted streams still being served, keyed by
    /// connection id, so shutdown can unblock handler threads parked in
    /// `read_frame`. Each handler removes its entry when it exits —
    /// otherwise the clone would hold the socket open (no FIN reaches
    /// the peer) and leak one descriptor per connection.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// Runs `f` on the data behind one of the daemon's mutexes and
    /// hands back its owned result — the only way server code touches
    /// that data, so no guard outlives a statement and nothing blocks
    /// under one. A poisoned mutex is recovered: every critical section
    /// here is a single map or flag update.
    fn with<T, R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The rebalance loop's one blocking point and the one place a
    /// server guard has a name: sleeps `interval` on the condvar (woken
    /// early by stop), then parks while paused. Returns whether the
    /// daemon is stopping.
    fn loop_wait(&self, interval: Duration) -> bool {
        let mut control = self.loop_control.lock().unwrap_or_else(PoisonError::into_inner);
        if !control.stop && !interval.is_zero() {
            control = self
                .loop_cv
                .wait_timeout(control, interval)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        while control.paused && !control.stop {
            control = self.loop_cv.wait(control).unwrap_or_else(PoisonError::into_inner);
        }
        control.stop
    }

    fn paused(&self) -> bool {
        // A daemon without a loop reports unpaused: there is nothing
        // the flag could stop.
        self.has_loop && Self::with(&self.loop_control, |c| c.paused)
    }

    fn ack(&self) -> ControlAck {
        ControlAck {
            paused: self.paused(),
            draining: self.draining.load(Ordering::SeqCst),
            shutting_down: self.shutting_down.load(Ordering::SeqCst),
        }
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        Self::with(&self.loop_control, |c| c.stop = true);
        self.loop_cv.notify_all();
    }

    fn service_stats(&self) -> ServiceStats {
        let engine = self.engine.stats();
        let totals = Self::with(&self.loop_totals, |t| *t);
        ServiceStats {
            machines: self.engine.num_machines() as u32,
            residents: self.engine.num_residents() as u64,
            requests: self.requests.get(),
            connections: self.connections.get(),
            protocol_errors: self.protocol_errors.get(),
            evaluations: engine.evaluations,
            offers: engine.offers,
            releases: engine.releases,
            release_failures: engine.release_failures,
            rebalance_passes: engine.rebalance_passes,
            loop_passes: totals.passes as u64,
            loop_migrations: totals.migrations as u64,
            suppressed_by_cooldown: totals.suppressed_by_cooldown as u64,
            blocked_by_gb_cap: totals.blocked_by_gb_cap as u64,
            sketch_skips: engine.sketch.skips,
            sketch_admits: engine.sketch.admits,
            sketch_stale: engine.sketch.stale,
            moved_gb: totals.moved_gb,
            paused: self.paused(),
            draining: self.draining.load(Ordering::SeqCst),
        }
    }
}

/// A running placement daemon. Spawn with [`PlacementServer::spawn`],
/// stop with [`PlacementServer::shutdown`] (or a client's `Shutdown`
/// verb followed by [`PlacementServer::join`]).
pub struct PlacementServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    loop_thread: Option<JoinHandle<()>>,
}

impl PlacementServer {
    /// Binds, spawns the accept thread (and the rebalance loop, when
    /// configured) and returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the socket bind failure.
    pub fn spawn(engine: Arc<PlacementEngine>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept: the loop polls the shutdown flag between
        // attempts instead of parking forever in accept(2), so a
        // client-initiated Shutdown verb stops the daemon without any
        // self-connection trick.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            engine,
            registry: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            control_token: config.control_token.clone(),
            has_loop: config.rebalance.is_some(),
            loop_control: Mutex::new(LoopControl {
                paused: config
                    .rebalance
                    .as_ref()
                    .is_some_and(|cfg| cfg.start_paused),
                stop: false,
            }),
            loop_cv: Condvar::new(),
            loop_totals: Mutex::new(RebalanceTotals::default()),
            requests: Counter::new(),
            connections: Counter::new(),
            protocol_errors: Counter::new(),
            conns: Mutex::new(HashMap::new()),
            handlers: Mutex::new(Vec::new()),
        });

        let loop_thread = config.rebalance.map(|cfg| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || rebalance_loop(&shared, &cfg))
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        };

        Ok(PlacementServer {
            shared,
            addr,
            accept: Some(accept),
            loop_thread,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<PlacementEngine> {
        &self.shared.engine
    }

    /// Tickets of the placements this daemon admitted and has not yet
    /// released, sorted.
    pub fn registry_tickets(&self) -> Vec<u64> {
        let mut tickets: Vec<u64> =
            Shared::with(&self.shared.registry, |r| r.keys().copied().collect());
        tickets.sort_unstable();
        tickets
    }

    /// What the background loop has done so far.
    pub fn loop_totals(&self) -> RebalanceTotals {
        Shared::with(&self.shared.loop_totals, |t| *t)
    }

    /// Initiates shutdown and joins every thread (accept, handlers,
    /// rebalance loop). Idempotent with a client-sent `Shutdown` verb.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Waits for a client-initiated `Shutdown` verb, then joins every
    /// thread. Blocks until that verb arrives.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Unblock handlers parked in read_frame on idle connections:
        // their streams see EOF and the handlers exit cleanly. Drain
        // under the lock, shut down after it drops — handlers removing
        // their own entry must never wait on this loop.
        let conns: Vec<_> = Shared::with(&self.shared.conns, |c| c.drain().collect());
        for (_, conn) in conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers = Shared::with(&self.shared.handlers, std::mem::take);
        for h in handlers {
            let _ = h.join();
        }
        if let Some(loop_thread) = self.loop_thread.take() {
            let _ = loop_thread.join();
        }
    }
}

/// Whether an `accept(2)` failure leaves the listener usable, so the
/// loop should back off and retry rather than go permanently deaf:
/// an aborted handshake, a signal, or descriptor/buffer/memory
/// exhaustion (ENFILE, EMFILE, ENOBUFS, ENOMEM) that closing
/// connections relieves.
fn transient_accept_error(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
    ) || matches!(e.raw_os_error(), Some(23 | 24 | 105 | 12))
}

/// The accept thread: non-blocking accept with a shutdown poll.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = shared.connections.incr();
                // The listener is non-blocking; the accepted stream
                // must not inherit that (handlers do blocking reads).
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                if let Ok(clone) = stream.try_clone() {
                    Shared::with(&shared.conns, |c| c.insert(conn_id, clone));
                }
                let shared_for_handler = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    handle_connection(&shared_for_handler, stream, conn_id);
                });
                // Reap handlers whose connections have closed, so the list
                // tracks live connections, not every one ever accepted.
                Shared::with(&shared.handlers, |handlers| {
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(handle);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || transient_accept_error(&e) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// The background rebalance thread: run a pass, sleep the interval,
/// repeat — parked while paused, woken promptly by resume and stop.
fn rebalance_loop(shared: &Arc<Shared>, cfg: &LoopConfig) {
    let mut interval = Duration::ZERO;
    while !shared.loop_wait(interval) {
        let report = shared.engine.rebalance(&cfg.policy);
        Shared::with(&shared.loop_totals, |t| t.absorb(&report));
        interval = cfg.interval;
    }
}

/// Closes one connection when dropped — on a normal return *and* when
/// the handler unwinds. The drop of the handler's `stream` alone closes
/// nothing: a clone lives in `Shared::conns` for shutdown to unblock
/// parked reads, so the peer only sees EOF once `shutdown(2)` hits the
/// underlying socket and the clone is removed. A handler that panicked
/// without this would leave its client blocked in `read_frame` forever.
struct ConnGuard<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    conn_id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        Shared::with(&self.shared.conns, |c| c.remove(&self.conn_id));
    }
}

/// One connection: strict request/response until disconnect, protocol
/// error, or shutdown.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let mut conn = ConnGuard {
        shared,
        stream,
        conn_id,
    };
    serve_connection(shared, &mut conn.stream);
}

/// Counts a framing or decoding failure and answers it with the typed
/// protocol error when the socket still accepts writes. The caller
/// closes the connection — its framing is no longer trustworthy — and
/// the daemon keeps serving other/new connections.
fn refuse_protocol(shared: &Shared, stream: &mut TcpStream, e: &dyn std::fmt::Display) {
    shared.protocol_errors.incr();
    let resp = Response::Error(RpcError {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    });
    let _ = write_frame(stream, &resp.encode());
}

/// The request/response loop of [`handle_connection`].
fn serve_connection(shared: &Arc<Shared>, mut stream: &mut TcpStream) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean disconnect
            // Truncated frame, oversized prefix, garbage transport.
            Err(e) => return refuse_protocol(shared, stream, &e),
        };
        let request = match Request::decode(&payload) {
            Ok(request) => request,
            Err(e) => return refuse_protocol(shared, stream, &e),
        };
        shared.requests.incr();
        let (response, close_after) = dispatch(shared, request);
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
        if close_after {
            return;
        }
    }
}

/// Executes one decoded request. Returns the response plus whether the
/// connection should close afterwards (only for `Shutdown`).
fn dispatch(shared: &Arc<Shared>, request: Request) -> (Response, bool) {
    match request {
        Request::Ping => (Response::Pong, false),
        Request::Place { req, strategy } => {
            if let Some(refusal) = admission_refusal(shared) {
                return (refusal, false);
            }
            // One decision per request by engine contract; should the
            // batch come back empty anyway, refuse rather than panic on
            // the serving path.
            let outcome = shared
                .engine
                .place_batch(&[req.to_engine()], strategy)
                .pop()
                .map_or_else(
                    || PlaceOutcome::Rejected {
                        reason: "engine returned no decision".to_string(),
                    },
                    |decision| register_outcome(shared, decision),
                );
            (Response::Place(outcome), false)
        }
        Request::PlaceBatch { reqs, strategy } => {
            if let Some(refusal) = admission_refusal(shared) {
                return (refusal, false);
            }
            let engine_reqs: Vec<_> = reqs.iter().map(|r| r.to_engine()).collect();
            let outcomes = shared
                .engine
                .place_batch(&engine_reqs, strategy)
                .into_iter()
                .map(|d| register_outcome(shared, d))
                .collect();
            (Response::Batch(outcomes), false)
        }
        Request::Release { ticket } => {
            let Some(placed) = Shared::with(&shared.registry, |r| r.remove(&ticket)) else {
                return (
                    Response::Error(RpcError {
                        code: ErrorCode::UnknownTicket,
                        message: format!("ticket #{ticket} is not held by this daemon"),
                    }),
                    false,
                );
            };
            match shared.engine.release(&placed) {
                Ok(()) => (Response::Released, false),
                Err(e) => (
                    Response::Error(RpcError {
                        code: ErrorCode::UnknownTicket,
                        message: e.to_string(),
                    }),
                    false,
                ),
            }
        }
        Request::Stats => (Response::Stats(shared.service_stats()), false),
        Request::Occupancy { machine } => {
            if machine as usize >= shared.engine.num_machines() {
                return (
                    Response::Error(RpcError {
                        code: ErrorCode::UnknownMachine,
                        message: format!(
                            "machine {machine} is outside the {}-host fleet",
                            shared.engine.num_machines()
                        ),
                    }),
                    false,
                );
            }
            let id = vc_engine::MachineId(machine as usize);
            let (used, total) = shared.engine.utilisation(id);
            let nodes = shared
                .engine
                .node_utilisation(id)
                .into_iter()
                .map(|(node, used, capacity)| NodeUse {
                    node: node.0 as u32,
                    used: used as u32,
                    capacity: capacity as u32,
                })
                .collect();
            (
                Response::Occupancy(OccupancyInfo {
                    machine,
                    used: used as u32,
                    total: total as u32,
                    nodes,
                }),
                false,
            )
        }
        Request::CanFit { req } => {
            let probe = shared.engine.can_fit(&req.to_engine());
            (
                Response::CanFit(FitInfo {
                    hosts: probe.hosts as u64,
                    goal_clearing_classes: probe.goal_clearing_classes as u32,
                    best_predicted: probe.best_predicted,
                    goal_perf: probe.goal_perf,
                    sketch_skipped: probe.sketch_skipped as u64,
                }),
                false,
            )
        }
        Request::PauseRebalance { token } => {
            if let Some(refusal) = control_refusal(shared, &token) {
                return (refusal, false);
            }
            Shared::with(&shared.loop_control, |c| c.paused = true);
            shared.loop_cv.notify_all();
            (Response::Ack(shared.ack()), false)
        }
        Request::ResumeRebalance { token } => {
            if let Some(refusal) = control_refusal(shared, &token) {
                return (refusal, false);
            }
            Shared::with(&shared.loop_control, |c| c.paused = false);
            shared.loop_cv.notify_all();
            (Response::Ack(shared.ack()), false)
        }
        Request::Drain { token } => {
            if let Some(refusal) = control_refusal(shared, &token) {
                return (refusal, false);
            }
            shared.draining.store(true, Ordering::SeqCst);
            (Response::Ack(shared.ack()), false)
        }
        Request::Shutdown { token } => {
            // An unauthorised shutdown must not close the connection
            // either: the verb simply did not happen.
            if let Some(refusal) = control_refusal(shared, &token) {
                return (refusal, false);
            }
            shared.begin_shutdown();
            (Response::Ack(shared.ack()), true)
        }
    }
}

/// The typed refusal for a control verb whose token does not match the
/// daemon's, `None` when the verb may apply (no token configured, or an
/// exact match). The daemon keeps serving either way — a wrong token
/// costs the caller one error response, nothing else.
fn control_refusal(shared: &Shared, token: &str) -> Option<Response> {
    match &shared.control_token {
        Some(expected) if expected != token => Some(Response::Error(RpcError {
            code: ErrorCode::Unauthorized,
            message: "control verb refused: bad or missing control token".to_string(),
        })),
        _ => None,
    }
}

/// The typed refusal for placement verbs while draining or stopping,
/// `None` while running normally.
fn admission_refusal(shared: &Shared) -> Option<Response> {
    if shared.shutting_down.load(Ordering::SeqCst) {
        return Some(Response::Error(RpcError {
            code: ErrorCode::ShuttingDown,
            message: "daemon is shutting down".to_string(),
        }));
    }
    if shared.draining.load(Ordering::SeqCst) {
        return Some(Response::Error(RpcError {
            code: ErrorCode::Draining,
            message: "daemon is draining: new placements are refused".to_string(),
        }));
    }
    None
}

/// Registers a committed placement in the ticket registry and projects
/// the decision onto the wire.
fn register_outcome(shared: &Shared, decision: vc_engine::PlacementDecision) -> PlaceOutcome {
    match decision {
        vc_engine::PlacementDecision::Placed(placed) => {
            let info = PlacedInfo::from_placed(&placed);
            Shared::with(&shared.registry, |r| r.insert(placed.ticket.0, placed));
            PlaceOutcome::Placed(info)
        }
        vc_engine::PlacementDecision::Rejected { reason } => PlaceOutcome::Rejected { reason },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use vc_engine::EngineConfig;

    /// A handler that unwinds still closes its connection: the peer
    /// reads EOF instead of blocking forever on the clone parked in
    /// `conns`, and the table loses the entry.
    #[test]
    fn an_unwinding_handler_closes_its_connection() {
        let server = PlacementServer::spawn(
            Arc::new(PlacementEngine::new(EngineConfig::default())),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        let shared = Arc::clone(&server.shared);
        // A connection made by hand, the way `accept_loop` registers one.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let conn_id = u64::MAX;
        let clone = stream.try_clone().expect("clone");
        Shared::with(&shared.conns, |c| c.insert(conn_id, clone));

        let handler = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || {
                let _conn = ConnGuard {
                    shared: &shared,
                    stream,
                    conn_id,
                };
                panic!("handler died mid-request");
            }
        });
        assert!(handler.join().is_err(), "the handler thread unwound");

        let mut rest = Vec::new();
        assert_eq!(peer.read_to_end(&mut rest).expect("EOF, not a hang"), 0);
        assert!(Shared::with(&shared.conns, |c| c.is_empty()));
        server.shutdown();
    }

    /// Descriptor, buffer and memory exhaustion, aborted handshakes and
    /// signals are retried; anything else means the listener is gone.
    #[test]
    fn transient_accept_errors_are_told_from_fatal_ones() {
        use io::{Error, ErrorKind};
        // ENFILE, EMFILE, ENOBUFS, ENOMEM, ECONNABORTED, EINTR.
        for raw in [23, 24, 105, 12, 103, 4] {
            assert!(transient_accept_error(&Error::from_raw_os_error(raw)), "errno {raw}");
        }
        for kind in [ErrorKind::ConnectionAborted, ErrorKind::Interrupted] {
            assert!(transient_accept_error(&Error::from(kind)), "{kind:?}");
        }
        // EBADF, EINVAL, ENOTSOCK, EOPNOTSUPP, EPERM.
        for raw in [9, 22, 88, 95, 1] {
            assert!(!transient_accept_error(&Error::from_raw_os_error(raw)), "errno {raw}");
        }
        for kind in [ErrorKind::PermissionDenied, ErrorKind::InvalidInput, ErrorKind::Other] {
            assert!(!transient_accept_error(&Error::from(kind)), "{kind:?}");
        }
    }

    /// A long-lived daemon does not grow one handler entry per
    /// connection ever accepted: the accept loop reaps finished
    /// handlers before it registers the next one.
    #[test]
    fn finished_handlers_are_reaped_by_the_accept_loop() {
        let server = PlacementServer::spawn(
            Arc::new(PlacementEngine::new(EngineConfig::default())),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        for _ in 0..200 {
            let mut client = crate::Client::connect(server.local_addr()).expect("connect");
            client.ping().expect("ping");
        }
        let tracked = Shared::with(&server.shared.handlers, |h| h.len());
        assert!(tracked <= 16, "{tracked} handler entries after 200 sequential connections");
        server.shutdown();
    }
}
