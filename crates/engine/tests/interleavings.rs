//! Model-checked publication orderings for the wait-free read
//! protocol, over the `vc-sync` interleaving explorer.
//!
//! The model mirrors the engine's host protocol at the granularity
//! that matters for readers: every mutation of the host's record
//! (occupancy + resident registry, plus the ticket-location map)
//! happens under the host lock — in the engine, on the copy-on-write
//! clone of the published `HostSnapshot` the lock guards, modelled
//! here as the `auth_*` fields — and a *single* publication step makes
//! the whole mutated record visible — occupancy, registry and capacity
//! profile together, before the lock drops. Wait-free readers load the
//! published snapshot at any point, never gated on the lock.
//!
//! The exhaustive explorer then proves, over every feasible
//! interleaving of commit vs release vs rebalance-move vs reader:
//!
//! * no reader ever observes a torn snapshot (registry and occupancy
//!   always agree thread-for-thread);
//! * the published capacity profile — the host's lock-free summary,
//!   and its share of the shard availability sketch — never diverges
//!   from the published occupancy: one fresh profile is stored and
//!   applied as the sketch delta in the *same* publication step as the
//!   snapshot, before the lock drops;
//! * the ticket-location map never dangles (every mapped ticket has
//!   an authoritative registry entry) — the ordering `release` relies
//!   on to stay sound after a poisoned-lock recovery.
//!
//! Three deliberately broken protocol variants — split publication
//! (occupancy and registry in separate steps, the two-slot design the
//! single `Slot` replaces), free-before-unmap release ordering, and a
//! capacity profile (summary and sketch delta) deferred past the
//! unlock — must each be *caught* by the explorer with a concrete
//! schedule.

use std::collections::BTreeMap;

use vc_sync::{Explorer, Step};
use vc_topology::{machines, NodeId, OccupancyMap, ThreadId};

/// (ticket, reserved threads) — the registry at model granularity.
type Registry = Vec<(u64, Vec<ThreadId>)>;

/// What one publication makes visible: the engine's `HostSnapshot`.
#[derive(Clone)]
struct Published {
    occ: OccupancyMap,
    residents: Registry,
}

/// The whole modelled host, plus what readers have observed.
#[derive(Clone)]
struct Model {
    /// Which model thread holds the host mutex, if any.
    lock: Option<usize>,
    /// The record under the lock (the engine's unpublished copy),
    /// mutated only while holding it.
    auth_occ: OccupancyMap,
    auth_residents: Registry,
    /// Fleet ticket-location map (one host here, value unused).
    locations: BTreeMap<u64, usize>,
    /// The single-slot snapshot: replaced whole, never in parts.
    published: Published,
    /// The published capacity profile — `profile[k]` = nodes with ≥ `k`
    /// free threads — which the engine stores as the host's summary and
    /// applies to its shard sketch as a delta, in the snapshot's step.
    profile: Vec<usize>,
    /// Every snapshot a reader step loaded.
    observed: Vec<Published>,
}

fn tid(r: std::ops::Range<usize>) -> Vec<ThreadId> {
    r.map(ThreadId).collect()
}

/// The capacity profile at model granularity: for every per-node
/// free-thread threshold `k`, how many nodes clear it (the node table
/// of a single-host shard).
fn profile_of(occ: &OccupancyMap) -> Vec<usize> {
    let free: Vec<usize> = (0..occ.num_nodes()).map(|n| occ.free_on_node(NodeId(n))).collect();
    (0..=occ.node_capacity())
        .map(|k| free.iter().filter(|&&f| f >= k).count())
        .collect()
}

/// A model with `residents` pre-placed and published (a quiescent
/// engine after those commits).
fn quiescent(residents: &[(u64, std::ops::Range<usize>)]) -> Model {
    let mut occ = OccupancyMap::new(&machines::tiny_two_node());
    let mut registry = Registry::new();
    let mut locations = BTreeMap::new();
    for (ticket, threads) in residents {
        let threads = tid(threads.clone());
        occ.reserve(&threads).expect("init residents must not collide");
        registry.push((*ticket, threads));
        locations.insert(*ticket, 0usize);
    }
    Model {
        lock: None,
        profile: profile_of(&occ),
        published: Published {
            occ: occ.clone(),
            residents: registry.clone(),
        },
        auth_occ: occ,
        auth_residents: registry,
        locations,
        observed: Vec::new(),
    }
}

/// A snapshot is torn iff its registry and occupancy disagree: some
/// thread is reserved with no resident owning it, owned without being
/// reserved, or owned twice.
fn consistent(p: &Published) -> Result<(), String> {
    let mut used = vec![false; p.occ.total_threads()];
    for (ticket, threads) in &p.residents {
        for t in threads {
            if used[t.0] {
                return Err(format!("thread {} owned by two residents (ticket {ticket})", t.0));
            }
            used[t.0] = true;
        }
    }
    for (t, &owned) in used.iter().enumerate() {
        if owned == p.occ.is_free(ThreadId(t)) {
            return Err(format!(
                "thread {t}: {}",
                if owned { "owned by a resident but free in the occupancy" } else { "occupied with no resident" }
            ));
        }
    }
    Ok(())
}

/// Checked after *every* step of every schedule.
fn invariant(m: &Model) -> Result<(), String> {
    consistent(&m.published).map_err(|e| format!("published snapshot torn: {e}"))?;
    for (i, o) in m.observed.iter().enumerate() {
        consistent(o).map_err(|e| format!("reader load {i} torn: {e}"))?;
    }
    let profile_of_published = profile_of(&m.published.occ);
    if m.profile != profile_of_published {
        return Err(format!(
            "sketch profile {:?} diverged from published occupancy {profile_of_published:?}",
            m.profile
        ));
    }
    for ticket in m.locations.keys() {
        if !m.auth_residents.iter().any(|(t, _)| t == ticket) {
            return Err(format!("location map dangles: ticket {ticket} has no registry entry"));
        }
    }
    Ok(())
}

/// The correct protocol's critical section, as the engine orders it:
/// lock → mutate everything → publish everything at once → unlock.
/// `me` is the model thread index (for lock ownership).
fn locked_section(
    me: usize,
    label: [&'static str; 4],
    mutate: impl Fn(&mut Model) + 'static,
) -> Vec<Step<Model>> {
    vec![
        Step::gated(label[0], |m: &Model| m.lock.is_none(), move |m: &mut Model| {
            m.lock = Some(me);
        }),
        Step::new(label[1], mutate),
        Step::new(label[2], |m: &mut Model| {
            m.published = Published {
                occ: m.auth_occ.clone(),
                residents: m.auth_residents.clone(),
            };
            m.profile = profile_of(&m.auth_occ);
        }),
        Step::new(label[3], |m: &mut Model| {
            m.lock = None;
        }),
    ]
}

/// A wait-free reader: `loads` snapshot loads, never gated on the
/// lock — it may run between any two steps of any writer.
fn reader(loads: usize) -> Vec<Step<Model>> {
    (0..loads)
        .map(|_| {
            Step::new("reader:load", |m: &mut Model| {
                let p = m.published.clone();
                m.observed.push(p);
            })
        })
        .collect()
}

/// Commit vs release vs wait-free reader, exhaustively: ticket 1
/// arrives on threads 2..4 while pre-placed ticket 7 (threads 0..2)
/// departs and a reader loads snapshots throughout. No interleaving
/// shows a torn snapshot, a stale profile or a dangling location.
#[test]
fn commit_vs_release_vs_reader_publication_orderings() {
    let init = quiescent(&[(7, 0..2)]);
    let commit = locked_section(
        0,
        ["commit:lock", "commit:reserve+register", "commit:publish", "commit:unlock"],
        |m: &mut Model| {
            let threads = tid(2..4);
            m.auth_occ.reserve(&threads).expect("threads 2..4 are free");
            m.auth_residents.push((1, threads));
            m.locations.insert(1, 0);
        },
    );
    let release = locked_section(
        1,
        ["release:lock", "release:unmap+free", "release:publish", "release:unlock"],
        |m: &mut Model| {
            // The engine's release order: location map first, then the
            // occupancy and registry — never a dangling map entry.
            m.locations.remove(&7);
            m.auth_occ.release(&tid(0..2)).expect("ticket 7 holds 0..2");
            m.auth_residents.retain(|(t, _)| *t != 7);
        },
    );

    let report = Explorer::Exhaustive
        .explore(init, vec![commit, release, reader(2)], invariant)
        .unwrap_or_else(|v| panic!("{v}"));
    // The lock serialises the two writer sections (2 orders); the
    // wait-free reader's 2 loads land anywhere among the 10 steps:
    // 2 × C(10,2) = 90 feasible schedules, every one explored.
    assert_eq!(report.schedules, 2 * 45, "exploration incomplete: {report:?}");
    assert_eq!(report.pruned, 0, "the lock holder can always advance");
}

/// A rebalance move (release old threads + reserve new, one critical
/// section) vs a racing commit vs a reader: movers publish source and
/// registry updates atomically, so readers never see the container in
/// two places or in none.
#[test]
fn rebalance_move_vs_commit_vs_reader_orderings() {
    let init = quiescent(&[(7, 0..2)]);
    let mover = locked_section(
        0,
        ["move:lock", "move:retarget", "move:publish", "move:unlock"],
        |m: &mut Model| {
            m.auth_occ.release(&tid(0..2)).expect("mover holds 0..2");
            let to = tid(4..6);
            m.auth_occ.reserve(&to).expect("threads 4..6 are free");
            for (t, threads) in &mut m.auth_residents {
                if *t == 7 {
                    *threads = to.clone();
                }
            }
        },
    );
    let commit = locked_section(
        1,
        ["commit:lock", "commit:reserve+register", "commit:publish", "commit:unlock"],
        |m: &mut Model| {
            let threads = tid(2..4);
            m.auth_occ.reserve(&threads).expect("threads 2..4 are free");
            m.auth_residents.push((8, threads));
            m.locations.insert(8, 0);
        },
    );

    let report = Explorer::Exhaustive
        .explore(init, vec![mover, commit, reader(2)], invariant)
        .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(report.schedules, 2 * 45, "exploration incomplete: {report:?}");
    assert_eq!(report.pruned, 0);
}

/// All four roles at once — commit, release, rebalance move and a
/// wait-free reader — via the sampled backend (the exhaustive space
/// is millions of schedules): a deterministic broad walk, every
/// sampled schedule invariant-clean.
#[test]
fn four_way_orderings_sampled() {
    let init = quiescent(&[(7, 0..2), (9, 6..8)]);
    let commit = locked_section(
        0,
        ["commit:lock", "commit:reserve+register", "commit:publish", "commit:unlock"],
        |m: &mut Model| {
            let threads = tid(4..6);
            m.auth_occ.reserve(&threads).expect("threads 4..6 are free");
            m.auth_residents.push((8, threads));
            m.locations.insert(8, 0);
        },
    );
    let release = locked_section(
        1,
        ["release:lock", "release:unmap+free", "release:publish", "release:unlock"],
        |m: &mut Model| {
            m.locations.remove(&7);
            m.auth_occ.release(&tid(0..2)).expect("ticket 7 holds 0..2");
            m.auth_residents.retain(|(t, _)| *t != 7);
        },
    );
    let mover = locked_section(
        2,
        ["move:lock", "move:retarget", "move:publish", "move:unlock"],
        |m: &mut Model| {
            m.auth_occ.release(&tid(6..8)).expect("ticket 9 holds 6..8");
            let to = tid(2..4);
            m.auth_occ.reserve(&to).expect("threads 2..4 are free");
            for (t, threads) in &mut m.auth_residents {
                if *t == 9 {
                    *threads = to.clone();
                }
            }
        },
    );

    let report = Explorer::Sampled {
        schedules: 5000,
        seed: 42,
    }
    .explore(init, vec![commit, release, mover, reader(2)], invariant)
    .unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(report.schedules, 5000, "every sampled walk must complete");
}

/// The design the single-slot snapshot replaces — publishing the
/// occupancy and the registry in *separate* steps (two slots) — is
/// broken, and the explorer must prove it: there is a schedule whose
/// intermediate publication is torn (occupancy reserved, resident not
/// yet visible), caught by the invariant with a concrete trace.
#[test]
fn split_publication_is_caught_by_the_explorer() {
    let init = quiescent(&[]);
    let broken_commit = vec![
        Step::gated("commit:lock", |m: &Model| m.lock.is_none(), |m: &mut Model| {
            m.lock = Some(0);
        }),
        Step::new("commit:reserve+register", |m: &mut Model| {
            let threads = tid(0..2);
            m.auth_occ.reserve(&threads).expect("idle host");
            m.auth_residents.push((1, threads));
            m.locations.insert(1, 0);
        }),
        Step::new("commit:publish-occ", |m: &mut Model| {
            m.published.occ = m.auth_occ.clone();
            m.profile = profile_of(&m.auth_occ);
        }),
        Step::new("commit:publish-residents", |m: &mut Model| {
            m.published.residents = m.auth_residents.clone();
        }),
        Step::new("commit:unlock", |m: &mut Model| {
            m.lock = None;
        }),
    ];

    let violation = Explorer::Exhaustive
        .explore(init, vec![broken_commit, reader(1)], invariant)
        .expect_err("a two-slot publication must be observably torn");
    assert!(
        violation.message.contains("torn"),
        "wrong failure: {violation}"
    );
    assert!(
        violation.trace.iter().any(|(_, name)| *name == "commit:publish-occ"),
        "the tear must happen at the split publication: {violation}"
    );
}

/// The release-ordering regression the engine documents (location map
/// first, then occupancy and registry): the reverse order strands a
/// dangling location entry mid-section — exactly what a panic between
/// the steps would leave behind — and the explorer must catch it.
#[test]
fn free_before_unmap_release_ordering_is_caught() {
    let init = quiescent(&[(7, 0..2)]);
    let broken_release = vec![
        Step::gated("release:lock", |m: &Model| m.lock.is_none(), |m: &mut Model| {
            m.lock = Some(0);
        }),
        Step::new("release:free", |m: &mut Model| {
            m.auth_occ.release(&tid(0..2)).expect("ticket 7 holds 0..2");
            m.auth_residents.retain(|(t, _)| *t != 7);
        }),
        Step::new("release:unmap", |m: &mut Model| {
            m.locations.remove(&7);
        }),
        Step::new("release:publish", |m: &mut Model| {
            m.published = Published {
                occ: m.auth_occ.clone(),
                residents: m.auth_residents.clone(),
            };
            m.profile = profile_of(&m.auth_occ);
        }),
        Step::new("release:unlock", |m: &mut Model| {
            m.lock = None;
        }),
    ];

    let violation = Explorer::Exhaustive
        .explore(init, vec![broken_release, reader(1)], invariant)
        .expect_err("free-before-unmap must strand a dangling location");
    assert!(
        violation.message.contains("dangles"),
        "wrong failure: {violation}"
    );
    assert_eq!(
        violation.trace.last().map(|(_, name)| *name),
        Some("release:free"),
        "caught at the exact misordered step: {violation}"
    );
}

/// Deferring the capacity profile past the publication step — storing
/// the summary and applying the shard sketch delta lazily after the
/// snapshot (or worse, after the unlock) — leaves a window where the
/// sketch under-reports the hosts a descending request may admit, or
/// over-reports after a release. The engine publishes the profile in
/// the guard's drop, with the snapshot, precisely to close that window;
/// the explorer must catch the lazy variant.
#[test]
fn deferred_sketch_delta_is_caught_by_the_explorer() {
    let init = quiescent(&[]);
    let broken_commit = vec![
        Step::gated("commit:lock", |m: &Model| m.lock.is_none(), |m: &mut Model| {
            m.lock = Some(0);
        }),
        Step::new("commit:reserve+register", |m: &mut Model| {
            let threads = tid(0..2);
            m.auth_occ.reserve(&threads).expect("idle host");
            m.auth_residents.push((1, threads));
            m.locations.insert(1, 0);
        }),
        // Publishes the snapshot, but *not* the profile — the descent
        // can now be steered by counters describing an occupancy nobody
        // can observe any more.
        Step::new("commit:publish-sans-profile", |m: &mut Model| {
            m.published = Published {
                occ: m.auth_occ.clone(),
                residents: m.auth_residents.clone(),
            };
        }),
        Step::new("commit:unlock", |m: &mut Model| {
            m.lock = None;
        }),
        Step::new("commit:profile-late", |m: &mut Model| {
            m.profile = profile_of(&m.auth_occ);
        }),
    ];

    let violation = Explorer::Exhaustive
        .explore(init, vec![broken_commit, reader(1)], invariant)
        .expect_err("a deferred sketch delta must be observably stale");
    assert!(
        violation.message.contains("sketch") && violation.message.contains("diverged"),
        "wrong failure: {violation}"
    );
    assert_eq!(
        violation.trace.last().map(|(_, name)| *name),
        Some("commit:publish-sans-profile"),
        "caught the moment the snapshot outruns the profile: {violation}"
    );
}
