//! `SimOracle::penalty`, the co-location memo, against the solve it
//! memoises, `InterferenceOracle::co_location_penalty`, bit for bit:
//!
//! - past the memo's bound, every memoised penalty is the direct
//!   solve's on the same input, and the counters depend on the lookup
//!   history alone;
//! - the bound keeps exactly the most recently used keys;
//! - the key is the solve's input: the same threads in another order,
//!   or the residents in another order, are other entries, and an
//!   occupancy is its used threads however it was reached;
//! - an idle occupancy is a hit without a solve;
//! - below the bound, the counters of a script are its distinct inputs;
//! - a warm key still checks the contract a direct call checks.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use vc_core::interference::{InterferenceCounters, InterferenceOracle, ResidentWorkload};
use vc_sim::SimOracle;
use vc_topology::{machines, Machine, NodeId, OccupancyMap, ThreadId};

const CANDIDATES: [&str; 5] = ["streamcluster", "WTbtree", "swaptions", "canneal", "kmeans"];
const RESIDENTS: [&str; 4] = ["canneal", "streamcluster", "blast", "swaptions"];
/// Distinct busy inputs [`busy_query`] enumerates.
const BUSY_INPUTS: usize = 5 * 4 * 2 * 2 * 4 * 4 * 3 * 2;

/// `workload` on `count` threads of `node`, from its `offset`-th.
fn resident_on(
    m: &Machine,
    workload: &str,
    node: usize,
    offset: usize,
    count: usize,
) -> ResidentWorkload {
    ResidentWorkload {
        workload: workload.to_string(),
        threads: m.threads_on_node(NodeId(node))[offset..offset + count].to_vec(),
    }
}

/// The occupancy holding exactly `residents`.
fn occupancy_of(m: &Machine, residents: &[ResidentWorkload]) -> OccupancyMap {
    let mut occ = OccupancyMap::new(m);
    for r in residents {
        occ.reserve(&r.threads).unwrap();
    }
    occ
}

/// A solve's input: the candidate's workload and thread indices, then
/// each resident's.
type Input<'a> = (&'a str, Vec<usize>, Vec<(&'a str, Vec<usize>)>);

/// One penalty query: the arguments of `co_location_penalty`.
struct Query {
    workload: &'static str,
    threads: Vec<ThreadId>,
    occ: OccupancyMap,
    residents: Vec<ResidentWorkload>,
}

impl Query {
    fn memoised(&self, o: &SimOracle) -> f64 {
        o.penalty(self.workload, &self.threads, &self.occ, &self.residents)
    }

    fn direct(&self, o: &SimOracle) -> f64 {
        o.co_location_penalty(self.workload, &self.threads, &self.occ, &self.residents)
    }

    /// The solve's input, which is what the memo keys; `None` on an
    /// idle host, which solves nothing.
    fn input(&self) -> Option<Input<'_>> {
        let indices = |threads: &[ThreadId]| threads.iter().map(|t| t.index()).collect();
        (self.occ.used_threads() > 0).then(|| {
            let residents = self
                .residents
                .iter()
                .map(|r| (r.workload.as_str(), indices(&r.threads)))
                .collect();
            (self.workload, indices(&self.threads), residents)
        })
    }
}

/// Busy input number `i` of [`BUSY_INPUTS`], all distinct on the AMD
/// machine: 5 candidate workloads × 4 candidate nodes × 2 sizes × 2
/// thread orders × 4 resident workloads × 4 resident nodes × 3 resident
/// sizes × 2 offsets within the resident's node.
fn busy_query(m: &Machine, mut i: usize) -> Query {
    let mut take = |n: usize| {
        let v = i % n;
        i /= n;
        v
    };
    let workload = CANDIDATES[take(5)];
    let mut threads = m.threads_on_node(NodeId(take(4)))[..4 * (1 + take(2))].to_vec();
    if take(2) == 1 {
        threads.reverse();
    }
    let resident = RESIDENTS[take(4)];
    let (node, count, offset) = (4 + take(4), 1 + take(3), 4 * take(2));
    let residents = vec![resident_on(m, resident, node, offset, count)];
    Query {
        workload,
        threads,
        occ: occupancy_of(m, &residents),
        residents,
    }
}

/// `steps` queries from a fixed pseudo-random script over the busy
/// inputs; one in sixteen is against an idle host.
fn scripted(m: &Machine, steps: usize) -> Vec<Query> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..steps)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let draw = (x >> 33) as usize;
            let mut q = busy_query(m, draw % BUSY_INPUTS);
            if (draw / BUSY_INPUTS).is_multiple_of(16) {
                q.occ = OccupancyMap::new(m);
                q.residents.clear();
            }
            q
        })
        .collect()
}

fn distinct_inputs(queries: &[Query]) -> usize {
    queries.iter().filter_map(Query::input).collect::<HashSet<_>>().len()
}

fn triple(c: InterferenceCounters) -> (u64, u64, u64) {
    (c.lookups, c.hits, c.computes)
}

#[test]
fn memoised_penalties_equal_direct_solves_past_the_bound() {
    // Past the bound, entries are evicted and filled again by whatever
    // query asks next; every answer must still be the solve's on that
    // query's own input, and two oracles (two hash seeds: `RandomState`
    // draws one per map) must count alike.
    let m = machines::amd_opteron_6272();
    let queries = scripted(&m, 8000);
    let distinct = distinct_inputs(&queries) as u64;
    assert!(distinct > SimOracle::PENALTY_CAPACITY as u64, "{distinct} keys fit the bound");
    let run = |compare: bool| {
        let o = SimOracle::new(m.clone());
        for (i, q) in queries.iter().enumerate() {
            let memoised = q.memoised(&o);
            if compare {
                assert_eq!(memoised.to_bits(), q.direct(&o).to_bits(), "query {i}");
            }
        }
        o.interference_counters()
    };
    let c = run(true);
    assert_eq!(c, run(false));
    assert_eq!(c.lookups, 8000);
    assert!(
        c.computes > distinct && c.hits > 1000,
        "the script must both thrash and hit: {c:?}, {distinct} distinct"
    );
}

#[test]
fn the_memo_keeps_the_most_recently_used_keys_up_to_its_bound() {
    let m = machines::amd_opteron_6272();
    let o = SimOracle::new(m.clone());
    let cap = SimOracle::PENALTY_CAPACITY;
    assert!(cap < BUSY_INPUTS);
    for i in 0..cap {
        busy_query(&m, i).memoised(&o);
    }
    assert_eq!(triple(o.interference_counters()), (cap as u64, 0, cap as u64));
    busy_query(&m, 0).memoised(&o); // a hit, now the most recent
    busy_query(&m, cap).memoised(&o); // one past the bound: drops key 1
    busy_query(&m, 0).memoised(&o); // still a hit
    busy_query(&m, 1).memoised(&o); // solved again
    let cap = cap as u64;
    assert_eq!(triple(o.interference_counters()), (cap + 4, 2, cap + 2));
}

#[test]
fn orders_and_near_collisions_are_distinct_entries() {
    let m = machines::amd_opteron_6272();
    let o = SimOracle::new(m.clone());
    let threads = m.threads_on_node(NodeId(0))[..4].to_vec();
    let mut reordered = threads.clone();
    reordered.swap(0, 2);
    let one = vec![resident_on(&m, "canneal", 1, 0, 2)];
    let mut flipped = one.clone();
    flipped[0].threads.reverse();
    let split = vec![resident_on(&m, "canneal", 1, 0, 1), resident_on(&m, "canneal", 1, 1, 1)];
    let two = vec![resident_on(&m, "canneal", 1, 0, 2), resident_on(&m, "blast", 2, 0, 2)];
    let swapped = vec![two[1].clone(), two[0].clone()];
    let moved = vec![resident_on(&m, "canneal", 1, 2, 2)];
    let rows: [(&str, &[ThreadId], &[ResidentWorkload]); 8] = [
        ("streamcluster", &threads, &one),
        // Another candidate workload.
        ("swaptions", &threads, &one),
        // The same threads in another order: the simulator sums its
        // loads thread by thread.
        ("streamcluster", &reordered, &one),
        ("streamcluster", &threads, &flipped),
        // One resident on two threads, two residents on one each.
        ("streamcluster", &threads, &split),
        // Two residents, and the same two in the other order (the
        // engine passes a record's residents in ticket order).
        ("streamcluster", &threads, &two),
        ("streamcluster", &threads, &swapped),
        // Other threads of the same node.
        ("streamcluster", &threads, &moved),
    ];
    for (i, &(w, t, r)) in rows.iter().enumerate() {
        o.penalty(w, t, &occupancy_of(&m, r), r);
        assert_eq!(
            o.interference_counters().computes,
            i as u64 + 1,
            "row {i} was answered from another row's entry"
        );
    }
    // Every row again is a hit, however its occupancy was reached, and
    // answers its own solve.
    let spare = m.threads_on_node(NodeId(5));
    for &(w, t, r) in &rows {
        let mut detour = OccupancyMap::new(&m);
        for res in r.iter().rev() {
            detour.reserve(&res.threads).unwrap();
        }
        detour.reserve(&spare).unwrap();
        detour.release(&spare).unwrap();
        let direct = o.co_location_penalty(w, t, &detour, r);
        assert_eq!(o.penalty(w, t, &detour, r).to_bits(), direct.to_bits());
    }
    let n = rows.len() as u64;
    assert_eq!(triple(o.interference_counters()), (2 * n, n, n));
}

#[test]
fn an_idle_occupancy_is_a_hit_without_a_solve() {
    let m = machines::amd_opteron_6272();
    let o = SimOracle::new(m.clone());
    let threads = m.threads_on_node(NodeId(0));
    let idle = OccupancyMap::new(&m);
    assert_eq!(o.penalty("streamcluster", &threads, &idle, &[]), 1.0);
    assert_eq!(triple(o.interference_counters()), (1, 1, 0));
}

#[test]
fn counters_after_a_script_count_its_distinct_inputs() {
    // Below the bound nothing is evicted, so the counts are a function
    // of the script: one solve per distinct busy input, every other
    // lookup a hit (idle short circuits included).
    let m = machines::amd_opteron_6272();
    let queries = scripted(&m, 2000);
    let distinct = distinct_inputs(&queries) as u64;
    assert!(
        distinct > 1000 && distinct < SimOracle::PENALTY_CAPACITY as u64,
        "the script must reach many keys within the bound: {distinct}"
    );
    let o = SimOracle::new(m.clone());
    for q in &queries {
        q.memoised(&o);
    }
    assert_eq!(
        triple(o.interference_counters()),
        (2000, 2000 - distinct, distinct)
    );
}

/// A warm key is no licence to skip the contract: an occupancy its
/// residents do not exactly hold panics on the memo as on the solve,
/// whether it reserves a thread more than they hold or the same number
/// with one they do not.
#[test]
fn a_warm_key_refuses_an_occupancy_its_residents_do_not_hold() {
    let m = machines::amd_opteron_6272();
    let o = SimOracle::new(m.clone());
    let threads = m.threads_on_node(NodeId(0));
    let residents = vec![resident_on(&m, "canneal", 1, 0, 4)];
    let occ = occupancy_of(&m, &residents);
    let warm = o.penalty("streamcluster", &threads, &occ, &residents);
    let mut wider = occ.clone();
    wider.reserve(&m.threads_on_node(NodeId(2))[..1]).unwrap();
    let mut shifted = OccupancyMap::new(&m);
    shifted.reserve(&m.threads_on_node(NodeId(1))[1..5]).unwrap();
    for bad in [&wider, &shifted] {
        let memoised = || o.penalty("streamcluster", &threads, bad, &residents);
        let direct = || o.co_location_penalty("streamcluster", &threads, bad, &residents);
        for probe in [catch_unwind(AssertUnwindSafe(memoised)), catch_unwind(AssertUnwindSafe(direct))] {
            let message = *probe.expect_err("contract broken").downcast::<String>().unwrap();
            assert!(message.contains("the occupancy reserves"), "{message}");
        }
    }
    let again = o.penalty("streamcluster", &threads, &occ, &residents);
    assert_eq!(again.to_bits(), warm.to_bits());
    assert_eq!(o.interference_counters().computes, 1);
}
