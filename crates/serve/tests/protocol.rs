//! Protocol battery: every rpc message round-trips bit-exactly
//! (property-tested), malformed bytes decode to typed errors without
//! wild allocations, and a live daemon survives truncated frames,
//! oversized length prefixes, garbage payloads and mid-frame
//! disconnects — answering each with a typed protocol error where the
//! socket still allows one, and serving the next connection regardless.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use proptest::collection;
use vc_engine::{BatchStrategy, EngineConfig, PlacementEngine};
use vc_ml::forest::ForestConfig;
use vc_serve::rpc::{
    ControlAck, DecodeError, ErrorCode, FitInfo, NodeUse, OccupancyInfo, PlaceOutcome, PlacedInfo,
    Request, Response, RpcError, ServiceStats, WireRequest, MAX_VEC,
};
use vc_serve::wire::{read_frame, write_frame, WireError, MAX_FRAME};
use vc_serve::{Client, PlacementServer, ServerConfig};
use vc_topology::machines;

// ---------------------------------------------------------------------
// Generators.

fn arb_string() -> impl Strategy<Value = String> {
    collection::vec(97u8..123, 0..13).prop_map(|bytes| String::from_utf8(bytes).unwrap())
}

fn arb_request_fields() -> impl Strategy<Value = WireRequest> {
    (arb_string(), 0u32..512, 0.0f64..2.0, 0u64..u64::MAX).prop_map(
        |(workload, vcpus, goal_frac, probe_seed)| WireRequest {
            workload,
            vcpus,
            goal_frac,
            probe_seed,
        },
    )
}

fn arb_strategy() -> impl Strategy<Value = BatchStrategy> {
    (0u8..2).prop_map(|tag| {
        if tag == 0 {
            BatchStrategy::FirstFit
        } else {
            BatchStrategy::BestScore
        }
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..11,
        arb_request_fields(),
        collection::vec(arb_request_fields(), 0..5),
        arb_strategy(),
        0u64..u64::MAX,
        0u32..1024,
        arb_string(),
    )
        .prop_map(
            |(variant, req, reqs, strategy, ticket, machine, token)| match variant {
                0 => Request::Ping,
                1 => Request::Place { req, strategy },
                2 => Request::PlaceBatch { reqs, strategy },
                3 => Request::Release { ticket },
                4 => Request::Stats,
                5 => Request::Occupancy { machine },
                6 => Request::CanFit { req },
                7 => Request::PauseRebalance { token },
                8 => Request::ResumeRebalance { token },
                9 => Request::Drain { token },
                _ => Request::Shutdown { token },
            },
        )
}

fn arb_placed() -> impl Strategy<Value = PlacedInfo> {
    (
        (0u64..u64::MAX, 0u32..4096, 0u32..64),
        collection::vec(0u32..64, 0..9),
        0u32..256,
        (0.0f64..1e9, 0.0f64..1.0, 0.0f64..1e9),
        0u8..2,
    )
        .prop_map(
            |((ticket, machine, placement_id), nodes, threads, perf, goal_met)| PlacedInfo {
                ticket,
                machine,
                placement_id,
                nodes,
                threads,
                predicted_perf: perf.0,
                interference_penalty: perf.1,
                goal_perf: perf.2,
                goal_met: goal_met == 1,
            },
        )
}

fn arb_outcome() -> impl Strategy<Value = PlaceOutcome> {
    (0u8..2, arb_placed(), arb_string()).prop_map(|(variant, placed, reason)| {
        if variant == 0 {
            PlaceOutcome::Placed(placed)
        } else {
            PlaceOutcome::Rejected { reason }
        }
    })
}

fn arb_stats() -> impl Strategy<Value = ServiceStats> {
    (
        (0u32..4096, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u64..u64::MAX, 0u64..u64::MAX, 0.0f64..1e6),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        (0u8..2, 0u8..2),
    )
        .prop_map(|(a, b, c, d, sk, flags)| ServiceStats {
            machines: a.0,
            residents: a.1,
            requests: a.2,
            connections: a.3,
            protocol_errors: b.0,
            evaluations: b.1,
            offers: b.2,
            releases: b.3,
            release_failures: c.0,
            rebalance_passes: c.1,
            loop_passes: c.2,
            loop_migrations: c.3,
            suppressed_by_cooldown: d.0,
            blocked_by_gb_cap: d.1,
            sketch_skips: sk.0,
            sketch_admits: sk.1,
            sketch_stale: sk.2,
            moved_gb: d.2,
            paused: flags.0 == 1,
            draining: flags.1 == 1,
        })
}

fn arb_error_code() -> impl Strategy<Value = ErrorCode> {
    (0u8..6).prop_map(|tag| match tag {
        0 => ErrorCode::Protocol,
        1 => ErrorCode::Draining,
        2 => ErrorCode::ShuttingDown,
        3 => ErrorCode::UnknownTicket,
        4 => ErrorCode::UnknownMachine,
        _ => ErrorCode::Unauthorized,
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0u8..9,
        arb_outcome(),
        collection::vec(arb_outcome(), 0..5),
        arb_stats(),
        (
            0u32..4096,
            0u32..4096,
            0u32..4096,
            collection::vec((0u32..64, 0u32..64, 0u32..64), 0..9),
        ),
        (0u64..u64::MAX, 0u32..8, 0.0f64..1e9, 0.0f64..1e9, 0u64..u64::MAX),
        (0u8..2, 0u8..2, 0u8..2),
        (arb_error_code(), arb_string()),
    )
        .prop_map(
            |(variant, outcome, outcomes, stats, occ, fit, ack, err)| match variant {
                0 => Response::Pong,
                1 => Response::Place(outcome),
                2 => Response::Batch(outcomes),
                3 => Response::Released,
                4 => Response::Stats(stats),
                5 => Response::Occupancy(OccupancyInfo {
                    machine: occ.0,
                    used: occ.1,
                    total: occ.2,
                    nodes: occ
                        .3
                        .into_iter()
                        .map(|(node, used, capacity)| NodeUse {
                            node,
                            used,
                            capacity,
                        })
                        .collect(),
                }),
                6 => Response::CanFit(FitInfo {
                    hosts: fit.0,
                    goal_clearing_classes: fit.1,
                    best_predicted: fit.2,
                    goal_perf: fit.3,
                    sketch_skipped: fit.4,
                }),
                7 => Response::Ack(ControlAck {
                    paused: ack.0 == 1,
                    draining: ack.1 == 1,
                    shutting_down: ack.2 == 1,
                }),
                _ => Response::Error(RpcError {
                    code: err.0,
                    message: err.1,
                }),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every request encodes and decodes back to itself.
    #[test]
    fn request_roundtrip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// Every response encodes and decodes back to itself.
    #[test]
    fn response_roundtrip(resp in arb_response()) {
        let bytes = resp.encode();
        prop_assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    /// Frames round-trip through the wire layer unchanged.
    #[test]
    fn framed_roundtrip(req in arb_request()) {
        let mut stream = Vec::new();
        write_frame(&mut stream, &req.encode()).unwrap();
        let payload = read_frame(&mut &stream[..]).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Truncating any strict prefix of a valid encoding never panics
    /// and never decodes to a different valid message silently — it is
    /// a typed decode error.
    #[test]
    fn truncated_encodings_are_typed_errors(req in arb_request(), cut in 0.0f64..1.0) {
        let bytes = req.encode();
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(Request::decode(&bytes[..keep]).is_err());
    }
}

/// Empty batches are legal messages, both directions.
#[test]
fn empty_batches_roundtrip() {
    let req = Request::PlaceBatch {
        reqs: vec![],
        strategy: BatchStrategy::FirstFit,
    };
    assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    let resp = Response::Batch(vec![]);
    assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
}

/// Max-size payloads round-trip and both caps are exact: the wire layer
/// carries exactly [`MAX_FRAME`] bytes and refuses one more before
/// anything hits the stream; the rpc layer carries a [`MAX_VEC`]-byte
/// string and rejects one more from the embedded length.
#[test]
fn max_size_payloads_roundtrip_and_the_caps_are_exact() {
    let payload = vec![0xA5u8; MAX_FRAME as usize];
    let mut sink = Vec::new();
    write_frame(&mut sink, &payload).unwrap();
    assert_eq!(read_frame(&mut &sink[..]).unwrap().unwrap(), payload);

    let over = vec![0u8; MAX_FRAME as usize + 1];
    let mut sink = Vec::new();
    assert!(matches!(
        write_frame(&mut sink, &over),
        Err(WireError::Oversized { .. })
    ));
    assert!(sink.is_empty());

    let fill = |len: usize| Request::Place {
        req: WireRequest {
            workload: "x".repeat(len),
            vcpus: 4,
            goal_frac: 0.9,
            probe_seed: 7,
        },
        strategy: BatchStrategy::BestScore,
    };
    let at_cap = fill(MAX_VEC as usize);
    assert_eq!(Request::decode(&at_cap.encode()).unwrap(), at_cap);
    assert_eq!(
        Request::decode(&fill(MAX_VEC as usize + 1).encode()),
        Err(DecodeError::BadLength {
            what: "string",
            len: MAX_VEC + 1,
        })
    );
}

/// A forged embedded count (4 billion batch entries in a 10-byte
/// payload) is rejected from the count itself — before any allocation.
#[test]
fn forged_inner_lengths_are_rejected_before_allocation() {
    let mut bytes = vec![3u8]; // PlaceBatch tag
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(
        Request::decode(&bytes),
        Err(DecodeError::BadLength {
            what: "batch",
            len: u32::MAX,
        })
    );
    // Same for a string length inside a message.
    let mut bytes = vec![2u8]; // Place tag
    bytes.extend_from_slice(&0x7fff_ffffu32.to_be_bytes()); // workload len
    assert_eq!(
        Request::decode(&bytes),
        Err(DecodeError::BadLength {
            what: "string",
            len: 0x7fff_ffff,
        })
    );
}

/// Unknown tags and trailing bytes are typed errors, not panics.
#[test]
fn bad_tags_and_trailing_bytes_are_typed() {
    assert_eq!(
        Request::decode(&[0xEE]),
        Err(DecodeError::BadTag {
            what: "request",
            tag: 0xEE,
        })
    );
    let mut bytes = Request::Ping.encode();
    bytes.push(0);
    assert_eq!(Request::decode(&bytes), Err(DecodeError::Trailing { extra: 1 }));
    assert_eq!(Request::decode(&[]), Err(DecodeError::UnexpectedEof));
}

// ---------------------------------------------------------------------
// Wire compatibility: golden bytes, the documented tag table, and
// generator coverage. The codec is derived from one declaration per
// message, so encode/decode cannot drift from each other; these pin
// the declarations themselves.

fn golden_wire_request() -> WireRequest {
    WireRequest {
        workload: "wt".to_string(),
        vcpus: 16,
        goal_frac: 0.9,
        probe_seed: 7,
    }
}

/// One fixed message per request tag, with the bytes the hand-written
/// encoder produced for it before the codec was derived from the
/// declarations (generated at commit d7f7c2e). A reordered field, a
/// renumbered tag or a changed width fails here.
fn golden_requests() -> Vec<(Request, &'static [u8])> {
    let req = golden_wire_request;
    let token = || "tok".to_string();
    vec![
        (Request::Ping, &[1]),
        (
            Request::Place { req: req(), strategy: BatchStrategy::BestScore },
            &[2, 0, 0, 0, 2, 119, 116, 0, 0, 0, 16, 63, 236, 204, 204, 204, 204, 204, 205, 0, 0, 0, 0, 0, 0, 0, 7, 1],
        ),
        (
            Request::PlaceBatch { reqs: vec![req()], strategy: BatchStrategy::FirstFit },
            &[3, 0, 0, 0, 1, 0, 0, 0, 2, 119, 116, 0, 0, 0, 16, 63, 236, 204, 204, 204, 204, 204, 205, 0, 0, 0, 0, 0, 0, 0, 7, 0],
        ),
        (Request::Release { ticket: 0x0102_0304_0506_0708 }, &[4, 1, 2, 3, 4, 5, 6, 7, 8]),
        (Request::Stats, &[5]),
        (Request::Occupancy { machine: 3 }, &[6, 0, 0, 0, 3]),
        (
            Request::CanFit { req: req() },
            &[7, 0, 0, 0, 2, 119, 116, 0, 0, 0, 16, 63, 236, 204, 204, 204, 204, 204, 205, 0, 0, 0, 0, 0, 0, 0, 7],
        ),
        (Request::PauseRebalance { token: token() }, &[8, 0, 0, 0, 3, 116, 111, 107]),
        (Request::ResumeRebalance { token: token() }, &[9, 0, 0, 0, 3, 116, 111, 107]),
        (Request::Drain { token: token() }, &[10, 0, 0, 0, 3, 116, 111, 107]),
        (Request::Shutdown { token: token() }, &[11, 0, 0, 0, 3, 116, 111, 107]),
    ]
}

/// One fixed message per response tag; see [`golden_requests`].
fn golden_responses() -> Vec<(Response, &'static [u8])> {
    let placed = PlaceOutcome::Placed(PlacedInfo {
        ticket: 9,
        machine: 2,
        placement_id: 5,
        nodes: vec![0, 3],
        threads: 16,
        predicted_perf: 1.5,
        interference_penalty: 0.75,
        goal_perf: 1.25,
        goal_met: true,
    });
    let rejected = PlaceOutcome::Rejected { reason: "full".to_string() };
    vec![
        (Response::Pong, &[129]),
        (
            Response::Place(placed.clone()),
            &[130, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 16, 63, 248, 0, 0, 0, 0, 0, 0, 63, 232, 0, 0, 0, 0, 0, 0, 63, 244, 0, 0, 0, 0, 0, 0, 1],
        ),
        (
            Response::Batch(vec![placed, rejected]),
            &[131, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 16, 63, 248, 0, 0, 0, 0, 0, 0, 63, 232, 0, 0, 0, 0, 0, 0, 63, 244, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 4, 102, 117, 108, 108],
        ),
        (Response::Released, &[132]),
        (
            Response::Stats(ServiceStats {
                machines: 1,
                residents: 2,
                requests: 3,
                connections: 4,
                protocol_errors: 5,
                evaluations: 6,
                offers: 7,
                releases: 8,
                release_failures: 9,
                rebalance_passes: 10,
                loop_passes: 11,
                loop_migrations: 12,
                suppressed_by_cooldown: 13,
                blocked_by_gb_cap: 14,
                sketch_skips: 15,
                sketch_admits: 16,
                sketch_stale: 17,
                moved_gb: 2.5,
                paused: true,
                draining: false,
            }),
            &[133, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 0, 0, 0, 0, 15, 0, 0, 0, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0, 17, 64, 4, 0, 0, 0, 0, 0, 0, 1, 0],
        ),
        (
            Response::Occupancy(OccupancyInfo {
                machine: 1,
                used: 6,
                total: 64,
                nodes: vec![NodeUse { node: 0, used: 6, capacity: 8 }],
            }),
            &[134, 0, 0, 0, 1, 0, 0, 0, 6, 0, 0, 0, 64, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 8],
        ),
        (
            Response::CanFit(FitInfo {
                hosts: 40,
                goal_clearing_classes: 2,
                best_predicted: 3.5,
                goal_perf: 3.0,
                sketch_skipped: 128,
            }),
            &[135, 0, 0, 0, 0, 0, 0, 0, 40, 0, 0, 0, 2, 64, 12, 0, 0, 0, 0, 0, 0, 64, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128],
        ),
        (
            Response::Ack(ControlAck { paused: false, draining: true, shutting_down: true }),
            &[136, 0, 1, 1],
        ),
        (
            Response::Error(RpcError { code: ErrorCode::Unauthorized, message: "no".to_string() }),
            &[137, 5, 0, 0, 0, 2, 110, 111],
        ),
    ]
}

#[test]
fn golden_bytes_pin_the_wire_format() {
    let requests = golden_requests();
    let tags: Vec<u8> = requests.iter().map(|(_, bytes)| bytes[0]).collect();
    let declared: Vec<u8> = Request::TAGS.iter().map(|(tag, _)| *tag).collect();
    assert_eq!(tags, declared, "one golden vector per request tag");
    for (req, bytes) in requests {
        assert_eq!(req.encode(), bytes, "{req:?}");
        assert_eq!(Request::decode(bytes).unwrap(), req);
    }

    let responses = golden_responses();
    let tags: Vec<u8> = responses.iter().map(|(_, bytes)| bytes[0]).collect();
    let declared: Vec<u8> = Response::TAGS.iter().map(|(tag, _)| *tag).collect();
    assert_eq!(tags, declared, "one golden vector per response tag");
    for (resp, bytes) in responses {
        assert_eq!(resp.encode(), bytes, "{resp:?}");
        assert_eq!(Response::decode(bytes).unwrap(), resp);
    }
}

/// ARCHITECTURE.md's tag table and the declared tags are the same
/// table: every `| N | `Name` … |` row names a declared tag, and every
/// declared tag has its row.
#[test]
fn documented_tag_table_matches_the_declarations() {
    let docs = include_str!("../../../ARCHITECTURE.md");
    let mut documented: Vec<(u8, String)> = docs
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix("| ")?.split(" | ");
            let tag = cells.next()?.parse::<u8>().ok()?;
            let name = cells.next()?.split('`').nth(1)?;
            Some((tag, name.to_string()))
        })
        .collect();
    documented.sort();
    let mut declared: Vec<(u8, String)> = Request::TAGS
        .iter()
        .chain(Response::TAGS)
        .map(|(tag, name)| (*tag, name.to_string()))
        .collect();
    declared.sort();
    assert_eq!(documented, declared);
}

/// The generators the roundtrip properties draw from reach every
/// declared tag — a variant added to the codec but not to
/// `arb_request`/`arb_response` would be roundtrip-tested by nothing.
#[test]
fn generators_cover_exactly_the_declared_tags() {
    fn sampled_tags<S: Strategy>(strategy: S, encode: impl Fn(&S::Value) -> Vec<u8>) -> Vec<u8> {
        let mut rng = proptest::TestRng::from_name("generators_cover_exactly_the_declared_tags");
        let mut tags: Vec<u8> = (0..4096)
            .map(|_| encode(&strategy.new_value(&mut rng))[0])
            .collect();
        tags.sort_unstable();
        tags.dedup();
        tags
    }
    let declared = |table: &[(u8, &str)]| table.iter().map(|(tag, _)| *tag).collect::<Vec<u8>>();
    assert_eq!(sampled_tags(arb_request(), Request::encode), declared(Request::TAGS));
    assert_eq!(sampled_tags(arb_response(), Response::encode), declared(Response::TAGS));
}

// ---------------------------------------------------------------------
// Adversarial bytes against a live daemon.

fn tiny_server() -> PlacementServer {
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
    PlacementServer::spawn(Arc::new(engine), ServerConfig::default()).expect("bind loopback")
}

/// Polls the daemon's protocol-error counter until it reaches `want`.
fn await_protocol_errors(client: &mut Client, want: u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let seen = client.stats().expect("stats").protocol_errors;
        if seen >= want || Instant::now() > deadline {
            return seen;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The four adversaries, against one daemon, each followed by proof the
/// daemon still serves: a fresh connection's ping answers.
#[test]
fn adversarial_bytes_leave_the_daemon_serving() {
    let server = tiny_server();
    let addr = server.local_addr();
    let mut observer = Client::connect(addr).expect("connect observer");
    observer.ping().expect("daemon up");

    // 1. Truncated frame: half a length prefix, then a clean close.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&[0u8, 0]).expect("write partial header");
        drop(raw);
    }
    assert_eq!(await_protocol_errors(&mut observer, 1), 1);
    Client::connect(addr).expect("connect after truncation").ping().expect("still serving");

    // 2. Oversized length prefix: must be rejected from the header —
    // and the daemon can still answer with the typed error, because it
    // never tried to read (or allocate) the advertised 2 GB.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&(1u32 << 31).to_be_bytes()).expect("write prefix");
        raw.flush().unwrap();
        let payload = read_frame(&mut raw)
            .expect("typed error frame")
            .expect("daemon answers before closing");
        match Response::decode(&payload).expect("decodable error") {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Protocol);
                assert!(e.message.contains("exceeds"), "{}", e.message);
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
        // The daemon closed its side after the error.
        assert!(matches!(read_frame(&mut raw), Ok(None)));
    }
    assert_eq!(await_protocol_errors(&mut observer, 2), 2);
    Client::connect(addr).expect("connect after oversize").ping().expect("still serving");

    // 3. Garbage payload: a well-framed burst of nonsense decodes to a
    // typed error answered on the same connection.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        write_frame(&mut raw, &[0xEE, 0xFF, 0x00, 0x42]).expect("write garbage frame");
        let payload = read_frame(&mut raw)
            .expect("typed error frame")
            .expect("daemon answers before closing");
        match Response::decode(&payload).expect("decodable error") {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::Protocol);
                assert!(e.message.contains("tag"), "{}", e.message);
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    assert_eq!(await_protocol_errors(&mut observer, 3), 3);
    Client::connect(addr).expect("connect after garbage").ping().expect("still serving");

    // 4. Mid-frame disconnect: a frame promising 64 bytes delivers 10
    // and hangs up.
    {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(&64u32.to_be_bytes()).expect("write header");
        raw.write_all(&[7u8; 10]).expect("write partial payload");
        drop(raw);
    }
    assert_eq!(await_protocol_errors(&mut observer, 4), 4);
    Client::connect(addr).expect("connect after disconnect").ping().expect("still serving");

    // The observer's own connection survived all four neighbours.
    observer.ping().expect("observer connection intact");
    let stats = observer.stats().expect("stats");
    assert_eq!(stats.protocol_errors, 4);
    assert_eq!(stats.residents, 0, "no adversary smuggled a placement in");

    server.shutdown();
}
