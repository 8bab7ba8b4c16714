//! The placement daemon: a framed TCP front-end over
//! `Arc<PlacementEngine>` plus a pausable background rebalance loop.
//!
//! Every daemon thread lives in one `std::thread::scope`, opened by the
//! thread [`PlacementServer::spawn`] starts: the accept loop runs inline
//! with a blocking `accept`, each connection gets a handler thread (the
//! engine is `&self`-only and wait-free on reads, so handlers simply
//! call it concurrently), and the rebalance loop runs
//! `PlacementEngine::rebalance` every interval, pausable over the
//! control verbs, with hysteresis (move cooldown, per-pass moved-GB
//! cap) supplied by the loop's [`RebalancePolicy`]. Callers connect and
//! churn; the fleet self-corrects underneath.
//!
//! Lifecycle: **running** → (`Drain`) **draining** (placements
//! refused, releases complete) → (`Shutdown`) **stopped**: a
//! self-connect wakes the accept, which returns and shuts down every
//! open connection, and the scope joins the handlers and the loop. The
//! daemon keeps no record of its own of what it admitted: a `Release`
//! resolves its `u64` through the engine's
//! (`PlacementEngine::release_ticket`), so a client needs nothing
//! beyond the ticket, and what the daemon holds is exactly what the
//! engine's occupancy holds.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{JoinHandle, Scope};
use std::time::Duration;

use vc_engine::{PlacementEngine, PlacementTicket, RebalancePolicy, RebalanceTotals};
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

/// The daemon's lifecycle, stored once; every change goes through
/// [`Shared::update`], which wakes the loop parked on its condvar.
#[derive(Debug, Clone, Copy, Default)]
struct Lifecycle {
    /// The rebalance loop parks until resumed.
    paused: bool,
    /// Placements are refused; releases still complete.
    draining: bool,
    /// Placements are refused and every daemon thread returns.
    stopping: bool,
}

/// State shared by the daemon thread, the handler threads and the loop.
struct Shared {
    engine: Arc<PlacementEngine>,
    /// The bound address; shutdown connects to it to wake the accept.
    addr: SocketAddr,
    /// Shared secret the control verbs must carry; `None` = open.
    control_token: Option<String>,
    has_loop: bool,
    lifecycle: Mutex<Lifecycle>,
    lifecycle_cv: Condvar,
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
        let mut state = self.lifecycle.lock().unwrap_or_else(PoisonError::into_inner);
        if !state.stopping && !interval.is_zero() {
            state = self
                .lifecycle_cv
                .wait_timeout(state, interval)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        while state.paused && !state.stopping {
            state = self.lifecycle_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.stopping
    }

    /// Applies `f` to the lifecycle, wakes the rebalance loop, and acks
    /// the state `f` left behind.
    fn update(&self, f: impl FnOnce(&mut Lifecycle)) -> ControlAck {
        let state = Self::with(&self.lifecycle, |l| {
            f(l);
            *l
        });
        self.lifecycle_cv.notify_all();
        ControlAck {
            paused: state.paused,
            draining: state.draining,
            shutting_down: state.stopping,
        }
    }

    /// Sets the stop flag and wakes the loop, then wakes the blocked
    /// `accept` with one throwaway connection to the bound address (an
    /// unspecified IP stands for the loopback address of its family).
    /// A failed connect is ignored: the listener is then gone, or the
    /// accept loop sees the flag after its next accept error.
    fn begin_shutdown(&self) -> ControlAck {
        let ack = self.update(|l| l.stopping = true);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        ack
    }

    fn service_stats(&self) -> ServiceStats {
        let engine = self.engine.stats();
        let totals = Self::with(&self.loop_totals, |t| *t);
        let state = Self::with(&self.lifecycle, |l| *l);
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
            paused: state.paused,
            draining: state.draining,
        }
    }
}

/// A running placement daemon. Spawn with [`PlacementServer::spawn`],
/// stop with [`PlacementServer::shutdown`] (or a client's `Shutdown`
/// verb followed by [`PlacementServer::join`]).
pub struct PlacementServer {
    shared: Arc<Shared>,
    /// The daemon thread; every other daemon thread is scoped to it.
    daemon: JoinHandle<()>,
}

impl PlacementServer {
    /// Binds, spawns the daemon thread (which starts the rebalance
    /// loop, when configured, and accepts connections) and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates the socket bind failure, or the OS refusing to start
    /// the daemon thread.
    pub fn spawn(engine: Arc<PlacementEngine>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(Shared {
            engine,
            addr: listener.local_addr()?,
            control_token: config.control_token,
            has_loop: config.rebalance.is_some(),
            lifecycle: Mutex::new(Lifecycle {
                paused: config
                    .rebalance
                    .as_ref()
                    .is_some_and(|cfg| cfg.start_paused),
                ..Lifecycle::default()
            }),
            lifecycle_cv: Condvar::new(),
            loop_totals: Mutex::new(RebalanceTotals::default()),
            requests: Counter::new(),
            connections: Counter::new(),
            protocol_errors: Counter::new(),
            conns: Mutex::new(HashMap::new()),
        });
        let daemon = std::thread::Builder::new().spawn({
            let shared = Arc::clone(&shared);
            move || run_daemon(&shared, &listener, config.rebalance.as_ref())
        })?;
        Ok(PlacementServer { shared, daemon })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<PlacementEngine> {
        &self.shared.engine
    }

    /// Tickets of the containers live in the served engine, sorted —
    /// read wait-free from the hosts' published snapshots.
    pub fn registry_tickets(&self) -> Vec<u64> {
        let engine = &self.shared.engine;
        let mut tickets: Vec<u64> = Vec::new();
        for id in engine.machine_ids() {
            tickets.extend(engine.host_snapshot(id).residents().iter().map(|r| r.ticket.0));
        }
        tickets.sort_unstable();
        tickets
    }

    /// What the background loop has done so far.
    pub fn loop_totals(&self) -> RebalanceTotals {
        Shared::with(&self.shared.loop_totals, |t| *t)
    }

    /// Initiates shutdown and joins every thread (accept, handlers,
    /// rebalance loop). Idempotent with a client-sent `Shutdown` verb.
    pub fn shutdown(self) {
        self.shared.begin_shutdown();
        self.join();
    }

    /// Waits for a client-initiated `Shutdown` verb, then joins every
    /// thread. Blocks until that verb arrives.
    pub fn join(self) {
        // Err only after a handler panicked; the scope had joined every
        // thread by then, and `ConnGuard` had closed that connection.
        let _ = self.daemon.join();
    }
}

/// The daemon thread. The rebalance loop and every connection handler
/// are threads of one scope, and the accept loop runs inline in it; once
/// the accept loop returns, every open connection is shut down so that
/// the end of the scope joins the handlers and the loop promptly.
fn run_daemon(shared: &Shared, listener: &TcpListener, rebalance: Option<&LoopConfig>) {
    std::thread::scope(|scope| {
        if let Some(cfg) = rebalance {
            scope.spawn(|| rebalance_loop(shared, cfg));
        }
        accept_loop(shared, listener, scope);
        // A listener that failed for good stops the daemon as well.
        shared.update(|l| l.stopping = true);
        // Unblock handlers parked in read_frame on idle connections:
        // their streams see EOF and the handlers exit cleanly. Drain
        // under the lock, shut down after it drops — handlers removing
        // their own entry must never wait on this loop.
        let conns: Vec<_> = Shared::with(&shared.conns, |c| c.drain().collect());
        for (_, conn) in conns {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    });
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

/// The accept loop: a blocking `accept` hands each connection to a
/// handler thread in the daemon's scope. It returns once shutdown has
/// begun (dropping the wake connection unserved) or the listener fails
/// for good, and backs off 2 ms after a transient failure. A stream
/// that cannot be cloned into `conns` is refused: shutdown could not
/// unblock its handler.
fn accept_loop<'scope>(
    shared: &'scope Shared,
    listener: &TcpListener,
    scope: &'scope Scope<'scope, '_>,
) {
    loop {
        let accepted = listener.accept();
        if Shared::with(&shared.lifecycle, |l| l.stopping) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_id = shared.connections.incr();
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                stream.set_nodelay(true).ok();
                Shared::with(&shared.conns, |c| c.insert(conn_id, clone));
                let mut conn = ConnGuard {
                    shared,
                    stream,
                    conn_id,
                };
                let handler = std::thread::Builder::new();
                let _ = handler.spawn_scoped(scope, move || {
                    serve_connection(shared, &mut conn.stream, conn_id);
                });
            }
            Err(e) if transient_accept_error(&e) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// The background rebalance thread: run a pass, sleep the interval,
/// repeat — parked while paused, woken promptly by resume and stop.
fn rebalance_loop(shared: &Shared, cfg: &LoopConfig) {
    let mut interval = Duration::ZERO;
    while !shared.loop_wait(interval) {
        let report = shared.engine.rebalance(&cfg.policy);
        Shared::with(&shared.loop_totals, |t| t.absorb(&report));
        interval = cfg.interval;
    }
}

/// Closes one connection when dropped — on a normal return, when the
/// handler unwinds, *and* when no thread could be spawned to serve it
/// (the accept loop then keeps accepting). The drop of the handler's `stream` alone closes
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

/// One connection: strict request/response until disconnect, protocol
/// error, or shutdown.
fn serve_connection(shared: &Shared, mut stream: &mut TcpStream, conn_id: u64) {
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
        let (response, close_after) = dispatch(shared, request, conn_id);
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
        if close_after {
            return;
        }
    }
}

/// Executes one decoded request from connection `conn_id`. Returns the
/// response plus whether the connection should close afterwards (only
/// for `Shutdown`).
fn dispatch(shared: &Shared, request: Request, conn_id: u64) -> (Response, bool) {
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
                    wire_outcome,
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
                .map(wire_outcome)
                .collect();
            (Response::Batch(outcomes), false)
        }
        Request::Release { ticket } => {
            match shared.engine.release_ticket(PlacementTicket(ticket)) {
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
        // A daemon without a loop stays unpaused: there is nothing the
        // flag could stop.
        Request::PauseRebalance { token } => {
            control(shared, &token, |l| l.paused = shared.has_loop)
        }
        Request::ResumeRebalance { token } => control(shared, &token, |l| l.paused = false),
        Request::Drain { token } => control(shared, &token, |l| l.draining = true),
        Request::Shutdown { token } => {
            // An unauthorised shutdown must not close the connection
            // either: the verb simply did not happen.
            if let Some(refusal) = control_refusal(shared, &token) {
                return (refusal, false);
            }
            // Out of the shutdown drain first, so the ack still reaches
            // the client that asked; the handler closes it after writing.
            Shared::with(&shared.conns, |c| c.remove(&conn_id));
            (Response::Ack(shared.begin_shutdown()), true)
        }
    }
}

/// A control verb that only changes the lifecycle: refused on a bad
/// token, applied and acked otherwise; the connection stays open.
fn control(shared: &Shared, token: &str, f: impl FnOnce(&mut Lifecycle)) -> (Response, bool) {
    let refusal = control_refusal(shared, token);
    (refusal.unwrap_or_else(|| Response::Ack(shared.update(f))), false)
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
    let state = Shared::with(&shared.lifecycle, |l| *l);
    if state.stopping {
        return Some(Response::Error(RpcError {
            code: ErrorCode::ShuttingDown,
            message: "daemon is shutting down".to_string(),
        }));
    }
    if state.draining {
        return Some(Response::Error(RpcError {
            code: ErrorCode::Draining,
            message: "daemon is draining: new placements are refused".to_string(),
        }));
    }
    None
}

/// Projects an engine decision onto the wire.
fn wire_outcome(decision: vc_engine::PlacementDecision) -> PlaceOutcome {
    match decision {
        vc_engine::PlacementDecision::Placed(placed) => {
            PlaceOutcome::Placed(PlacedInfo::from_placed(&placed))
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

    /// A long-lived daemon holds nothing per connection it has closed:
    /// after 200 sequential connect/ping/close cycles `conns` empties,
    /// and the daemon still answers.
    #[test]
    fn closed_connections_leave_nothing_behind() {
        let server = PlacementServer::spawn(
            Arc::new(PlacementEngine::new(EngineConfig::default())),
            ServerConfig::default(),
        )
        .expect("bind loopback");
        for _ in 0..200 {
            let mut client = crate::Client::connect(server.local_addr()).expect("connect");
            client.ping().expect("ping");
        }
        // Each handler removes its entry once it reads the client's EOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !Shared::with(&server.shared.conns, |c| c.is_empty()) {
            assert!(std::time::Instant::now() < deadline, "closed connections stay in `conns`");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut client = crate::Client::connect(server.local_addr()).expect("connect");
        client.ping().expect("the daemon still answers");
        assert_eq!(client.stats().expect("stats").connections, 201);
        server.shutdown();
    }

    /// A daemon bound to the unspecified address still shuts down: its
    /// wake connect goes to loopback.
    #[test]
    fn a_daemon_bound_to_every_interface_shuts_down() {
        let server = PlacementServer::spawn(
            Arc::new(PlacementEngine::new(EngineConfig::default())),
            ServerConfig::default().with_addr("0.0.0.0:0"),
        )
        .expect("bind");
        assert!(server.local_addr().ip().is_unspecified());
        server.shutdown();
    }
}
