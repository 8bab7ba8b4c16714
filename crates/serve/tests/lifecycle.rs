//! Daemon lifecycle battery: pause/resume observably stops and restarts
//! the background rebalance loop, drain refuses placements while
//! completing releases, and shutdown joins every thread with the live
//! tickets exactly the ones the clients never released — nothing leaked.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vc_engine::{BatchStrategy, EngineConfig, PlacementEngine};
use vc_ml::forest::ForestConfig;
use vc_serve::rpc::{ErrorCode, PlaceOutcome, WireRequest};
use vc_serve::{Client, ClientError, LoopConfig, PlacementServer, ServerConfig};
use vc_topology::machines;

fn small_engine() -> Arc<PlacementEngine> {
    let mut engine = PlacementEngine::new(EngineConfig {
        n_seeds: 2,
        extra_synthetic: 0,
        forest: ForestConfig {
            n_trees: 20,
            ..ForestConfig::default()
        },
        ..EngineConfig::default()
    });
    engine.add_machine(machines::amd_opteron_6272());
    engine.add_machine(machines::amd_opteron_6272());
    Arc::new(engine)
}

fn wire(workload: &str, vcpus: u32, seed: u64) -> WireRequest {
    WireRequest {
        workload: workload.to_string(),
        vcpus,
        goal_frac: 0.0,
        probe_seed: seed,
    }
}

/// Polls until the engine's pass counter strictly exceeds `floor`.
fn await_pass_beyond(server: &PlacementServer, floor: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let passes = server.engine().stats().rebalance_passes;
        if passes > floor {
            return passes;
        }
        assert!(
            Instant::now() < deadline,
            "rebalance loop made no pass beyond {floor} within 10s"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Pausing the loop stops passes from accruing; resuming restarts them.
/// Observed through `EngineStats::rebalance_passes`, which counts every
/// loop invocation (even no-op passes), so the test needs no residents.
#[test]
fn pause_and_resume_are_observable_in_engine_stats() {
    let engine = small_engine();
    let config = ServerConfig::default().with_rebalance(LoopConfig {
        interval: Duration::from_millis(1),
        ..LoopConfig::default()
    });
    let server = PlacementServer::spawn(engine, config).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // The loop is running: passes accrue without any client help.
    let seen = await_pass_beyond(&server, 0);

    let ack = client.pause_rebalance().expect("pause");
    assert!(ack.paused);
    assert!(client.stats().expect("stats").paused);
    // The loop may finish the pass it had already started when the
    // pause landed; after a settle window the counter must freeze.
    std::thread::sleep(Duration::from_millis(50));
    let frozen = server.engine().stats().rebalance_passes;
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        server.engine().stats().rebalance_passes,
        frozen,
        "a paused loop must not run passes"
    );
    assert!(frozen >= seen);

    let ack = client.resume_rebalance().expect("resume");
    assert!(!ack.paused);
    assert!(!client.stats().expect("stats").paused);
    await_pass_beyond(&server, frozen);

    client.shutdown().expect("shutdown verb");
    server.join();
}

/// Drain refuses new placements with a typed error while releases of
/// existing placements keep working and empty the fleet.
#[test]
fn drain_rejects_placements_but_completes_releases() {
    let server = PlacementServer::spawn(small_engine(), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let placed = match client
        .place(wire("swaptions", 16, 1), BatchStrategy::FirstFit)
        .expect("place")
    {
        PlaceOutcome::Placed(info) => info,
        PlaceOutcome::Rejected { reason } => panic!("empty fleet rejected a placement: {reason}"),
    };
    assert_eq!(server.engine().num_residents(), 1);

    let ack = client.drain().expect("drain");
    assert!(ack.draining);
    assert!(client.stats().expect("stats").draining);

    // New placements: typed refusal, not a transport error.
    match client.place(wire("swaptions", 16, 2), BatchStrategy::FirstFit) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Draining),
        other => panic!("draining daemon admitted a placement: {other:?}"),
    }
    // Batches are refused the same way.
    match client.place_batch(vec![wire("swaptions", 4, 3)], BatchStrategy::BestScore) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Draining),
        other => panic!("draining daemon admitted a batch: {other:?}"),
    }

    // In-flight work still completes: the pre-drain resident releases.
    client.release(placed.ticket).expect("release while draining");
    assert_eq!(server.engine().num_residents(), 0);
    assert!(server.registry_tickets().is_empty());

    // A second release of the same ticket is a typed domain error.
    match client.release(placed.ticket) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownTicket),
        other => panic!("double release accepted: {other:?}"),
    }

    client.shutdown().expect("shutdown verb");
    server.join();
}

/// Shutdown joins the accept loop, every connection handler and the
/// rebalance loop, and leaks nothing: afterwards the daemon's live
/// tickets and the engine's occupancy describe exactly the residents
/// the clients never released.
#[test]
fn shutdown_joins_threads_and_registry_matches_occupancy() {
    let engine = small_engine();
    let config = ServerConfig::default().with_rebalance(LoopConfig {
        interval: Duration::from_millis(1),
        ..LoopConfig::default()
    });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr();

    // Two clients place; one releases one of its two placements, so a
    // known mix of live tickets survives the daemon.
    let mut a = Client::connect(addr).expect("connect a");
    let mut b = Client::connect(addr).expect("connect b");
    let mut live = Vec::new();
    for (client, seed) in [(&mut a, 10u64), (&mut b, 20u64)] {
        for offset in 0..2 {
            match client
                .place(wire("swaptions", 16, seed + offset), BatchStrategy::FirstFit)
                .expect("place")
            {
                PlaceOutcome::Placed(info) => live.push(info.ticket),
                PlaceOutcome::Rejected { reason } => panic!("fleet full early: {reason}"),
            }
        }
    }
    let released = live.swap_remove(1);
    a.release(released).expect("release");

    let ack = a.shutdown().expect("shutdown verb acked");
    assert!(ack.shutting_down);

    // The registry is frozen once shutdown begins (no verb can commit
    // after the ack); snapshot it, then join.
    let registry = server.registry_tickets();

    // join() returns only after the accept loop, all handlers and the
    // rebalance loop are joined — this would hang forever on a leak.
    server.join();

    // Nothing leaked: daemon registry == engine occupancy == exactly
    // the tickets never released.
    live.sort_unstable();
    let mut occupancy: Vec<u64> = (0..engine.num_machines())
        .flat_map(|m| engine.residents(vc_engine::MachineId(m)))
        .map(|r| r.ticket.0)
        .collect();
    occupancy.sort_unstable();
    assert_eq!(registry, live, "daemon registry drifted from the clients' bookkeeping");
    assert_eq!(occupancy, live, "engine occupancy drifted from the daemon registry");
    assert_eq!(engine.num_residents(), live.len());
    // …and with every thread joined the engine is quiescent: each
    // record agrees with its summary, registry and location map.
    engine.audit().expect("published views drifted from host state");

    // The other client's connection was shut down under it: its next
    // call fails with a transport error, not a hang.
    assert!(b.ping().is_err(), "daemon sockets must be closed after join");
}

/// A daemon configured with a control token refuses every control verb
/// that does not carry it — with a typed [`ErrorCode::Unauthorized`],
/// on a connection that stays fully usable — and keeps running: an
/// unauthorised `Shutdown` must not stop the daemon. The right token
/// then drives the whole lifecycle as usual.
#[test]
fn control_verbs_require_the_configured_token() {
    let engine = small_engine();
    let config = ServerConfig::default()
        .with_control_token("sesame")
        .with_rebalance(LoopConfig {
            interval: Duration::from_millis(1),
            ..LoopConfig::default()
        });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind");
    let addr = server.local_addr();

    // No token at all: all four verbs are refused with the typed code.
    let mut anon = Client::connect(addr).expect("connect anon");
    for (name, outcome) in [
        ("pause", anon.pause_rebalance()),
        ("resume", anon.resume_rebalance()),
        ("drain", anon.drain()),
        ("shutdown", anon.shutdown()),
    ] {
        match outcome {
            Err(ClientError::Server(e)) => assert_eq!(
                e.code,
                ErrorCode::Unauthorized,
                "{name} refused with the wrong code"
            ),
            other => panic!("tokenless {name} was not refused: {other:?}"),
        }
    }
    // The refusals cost nothing: the same connection still serves data
    // verbs, the daemon neither paused nor drained nor stopped.
    anon.ping().expect("connection survives refusals");
    let stats = anon.stats().expect("stats");
    assert!(!stats.paused && !stats.draining);
    match anon
        .place(wire("swaptions", 16, 1), BatchStrategy::FirstFit)
        .expect("data verbs never need the token")
    {
        PlaceOutcome::Placed(info) => anon.release(info.ticket).expect("release"),
        PlaceOutcome::Rejected { reason } => panic!("empty fleet rejected: {reason}"),
    }

    // A wrong token is refused exactly like a missing one.
    let mut wrong = Client::connect(addr).expect("connect").with_control_token("guess");
    match wrong.shutdown() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Unauthorized),
        other => panic!("wrong-token shutdown was not refused: {other:?}"),
    }

    // The right token drives the full lifecycle.
    let mut admin = Client::connect(addr).expect("connect").with_control_token("sesame");
    assert!(admin.pause_rebalance().expect("authorised pause").paused);
    assert!(!admin.resume_rebalance().expect("authorised resume").paused);
    assert!(admin.drain().expect("authorised drain").draining);
    assert!(admin.shutdown().expect("authorised shutdown").shutting_down);
    server.join();
}

/// Sizes with a single important placement (1 and 64 vCPUs on the AMD
/// 6272) answer over the wire. They used to panic the handler thread
/// inside model training, and — the socket clone in the daemon's
/// connection table keeping the connection open — leave the client
/// blocked in `read_frame` forever.
#[test]
fn single_placement_sizes_answer_through_the_daemon() {
    let engine = small_engine();
    let server =
        PlacementServer::spawn(Arc::clone(&engine), ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for vcpus in [1, 64] {
        match client
            .place(wire("swaptions", vcpus, 1), BatchStrategy::FirstFit)
            .expect("the daemon answers")
        {
            PlaceOutcome::Placed(info) => {
                assert_eq!(info.placement_id, 1, "{vcpus} vCPUs");
                assert_eq!(info.threads, vcpus);
                client.release(info.ticket).expect("release");
            }
            PlaceOutcome::Rejected { reason } => panic!("{vcpus} vCPUs rejected: {reason}"),
        }
    }
    client.shutdown().expect("shutdown verb");
    server.join();
    engine.audit().expect("published views drifted from host state");
}

/// Shutdown does not wait on a paused loop or an idle client: with the
/// loop parked on its condvar and one client connected but silent,
/// `shutdown()` returns, the idle client's next call fails instead of
/// hanging, and the engine is quiescent and consistent.
#[test]
fn shutdown_returns_with_the_loop_paused_and_a_client_idle() {
    let engine = small_engine();
    let config = ServerConfig::default().with_rebalance(LoopConfig {
        start_paused: true,
        ..LoopConfig::default()
    });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind");
    let mut idle = Client::connect(server.local_addr()).expect("connect");
    assert!(idle.stats().expect("stats").paused);

    server.shutdown();

    assert!(idle.ping().is_err(), "the idle client's connection must be closed");
    assert_eq!(engine.stats().rebalance_passes, 0, "a paused loop never ran");
    engine.audit().expect("published views drifted from host state");
}

/// A `Shutdown` verb followed by `PlacementServer::shutdown()`: the
/// second shutdown returns, and its wake connect — made after the
/// listener may already be gone — is harmless.
#[test]
fn shutdown_after_the_shutdown_verb_returns() {
    let engine = small_engine();
    let config = ServerConfig::default().with_rebalance(LoopConfig {
        interval: Duration::from_millis(1),
        ..LoopConfig::default()
    });
    let server = PlacementServer::spawn(Arc::clone(&engine), config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ticket = match client
        .place(wire("swaptions", 16, 1), BatchStrategy::FirstFit)
        .expect("place")
    {
        PlaceOutcome::Placed(info) => info.ticket,
        PlaceOutcome::Rejected { reason } => panic!("empty fleet rejected a placement: {reason}"),
    };
    assert!(client.shutdown().expect("shutdown verb acked").shutting_down);

    server.shutdown();

    let tickets: Vec<u64> = (0..engine.num_machines())
        .flat_map(|m| engine.residents(vc_engine::MachineId(m)))
        .map(|r| r.ticket.0)
        .collect();
    assert_eq!(tickets, [ticket]);
    engine.audit().expect("published views drifted from host state");
}
