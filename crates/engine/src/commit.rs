//! Committing decisions: the one protocol admissions and rebalance
//! moves share, admission's phase 2 on top of it, and release.
//!
//! Every decision is scored on a host record — the `Arc<HostSnapshot>`
//! a wait-free load returned — and becomes a [`Plan`]: the placement
//! exactly as scored, its prediction and penalty, and that record.
//! [`HostGuard::commit`] is the one step that turns a plan into a
//! reservation: under the host lock it reserves the planned threads
//! only if the host's record is still the plan's `Arc`. A record
//! changes identity exactly once per publication, so a plan commits
//! onto the very record it was scored on or not at all. A refused plan
//! changed nothing, and its caller re-plans on the fresh record with no
//! lock held: admission up to [`REPLANS`] times per host, a rebalance
//! move once per pass (see [`crate::rebalance`]). Single-threaded, no
//! record changes between plan and commit, so no plan is ever refused.

use std::cell::OnceCell;
use std::sync::Arc;

use vc_core::availability::AvailablePlacement;
use vc_core::interference::ResidentWorkload;
use vc_sync::lock::LockScope;
use vc_topology::{OccupancyMap, ThreadId};

use crate::engine::{
    BatchStrategy, Candidate, MachineId, Placed, PlacementDecision, PlacementEngine,
    PlacementRequest, PlacementTicket, Resident,
};
use crate::host::{HostGuard, HostSnapshot};
#[cfg(doc)]
use crate::stats::{EngineStats, SnapshotCounters};

/// How many plans admission makes on one host before it gives the host
/// up — a livelock backstop under pathological churn. Hitting it
/// degrades to a capacity error on that host, never a bad placement.
const REPLANS: usize = 16;

/// A decision scored on one host record, ready to commit.
pub(crate) struct Plan {
    /// The host the placement was scored on.
    pub(crate) host: MachineId,
    /// The record it was scored on; [`HostGuard::commit`] commits only
    /// while the host still holds this very `Arc`.
    pub(crate) record: Arc<HostSnapshot>,
    /// The placement class realised on concrete node sets and threads.
    pub(crate) placement: AvailablePlacement,
    /// Predicted performance there, interference-adjusted when scoring
    /// was.
    pub(crate) perf: f64,
    /// The co-location penalty applied to `perf` (`1.0` when off).
    pub(crate) penalty: f64,
}

impl Plan {
    /// The placement this plan commits as, under `ticket`.
    pub(crate) fn placed(self, ticket: PlacementTicket, goal_perf: f64) -> Placed {
        Placed {
            ticket,
            machine: self.host,
            placement_id: self.placement.id,
            spec: self.placement.spec,
            threads: self.placement.threads,
            predicted_perf: self.perf,
            interference_penalty: self.penalty,
            goal_perf,
            goal_met: self.perf >= goal_perf,
        }
    }
}

/// A host as [`PlacementEngine::score_walk`] prices it.
pub(crate) struct Target<'a> {
    pub(crate) id: MachineId,
    /// The record a plan here commits against.
    pub(crate) record: &'a Arc<HostSnapshot>,
    /// The occupancy a placement may use.
    pub(crate) occ: &'a OccupancyMap,
    /// The workloads a placement would run beside.
    pub(crate) neighbours: Neighbours<'a>,
}

/// The workloads a placement on a [`Target`] would run beside.
pub(crate) enum Neighbours<'a> {
    /// None: every penalty is `1.0`, and the co-location memo is never
    /// asked.
    Blind,
    /// These workloads.
    Listed(&'a [ResidentWorkload]),
    /// The record's residents, listed on the walk's first penalty: most
    /// busy targets have no class that can win, and list nothing.
    Record(OnceCell<Vec<ResidentWorkload>>),
}

impl Target<'_> {
    /// The workloads a placement here runs beside; `None` when scoring
    /// neighbour-blind.
    fn residents(&self) -> Option<&[ResidentWorkload]> {
        match &self.neighbours {
            Neighbours::Blind => None,
            Neighbours::Listed(residents) => Some(residents),
            Neighbours::Record(listed) => {
                Some(listed.get_or_init(|| self.record.resident_workloads()))
            }
        }
    }
}

impl PlacementEngine {
    /// The one scoring walk: admission and rebalance moves price every
    /// realisation through it, each with its own order and key, and
    /// `best` keeps the lowest-keyed plan over this call and earlier
    /// ones (ties keep the earlier).
    ///
    /// `classes` come in the caller's order as `(bound, idle
    /// prediction, realise)`. A realisation's adjusted prediction is its
    /// idle prediction times its co-location penalty against `target`,
    /// and `key(placement, adjusted, penalty)` ranks it (`None`: it
    /// cannot be chosen). A penalty is at most `1.0`, so `bound` — the
    /// key of the class's best conceivable realisation — is no higher
    /// than any key the class scores: a class whose bound is not below
    /// the best key is skipped before it is realised, and left once
    /// that holds. The walk skips and never stops, so it asks the memo
    /// for exactly the penalties that could change the answer, in order;
    /// the memo is exact, so a skipped lookup changes no later answer
    /// either.
    pub(crate) fn score_walk<K, F, R>(
        &self,
        scope: &LockScope,
        workload: &str,
        target: &Target<'_>,
        classes: impl IntoIterator<Item = (K, f64, F)>,
        mut key: impl FnMut(&AvailablePlacement, f64, f64) -> Option<K>,
        best: &mut Option<(K, Plan)>,
    ) where
        K: PartialOrd,
        F: FnOnce() -> R,
        R: IntoIterator<Item = AvailablePlacement>,
    {
        let oracle = self.hosts[target.id.0].sim(scope);
        let can_win = |bound: &K, best: &Option<(K, Plan)>| {
            best.as_ref().is_none_or(|(b, _)| bound < b)
        };
        for (bound, idle, realise) in classes {
            if !can_win(&bound, best) {
                continue;
            }
            for placement in realise() {
                let penalty = target.residents().map_or(1.0, |residents| {
                    oracle.penalty(workload, &placement.threads, target.occ, residents)
                });
                let perf = idle * penalty;
                let Some(k) = key(&placement, perf, penalty) else {
                    continue;
                };
                if best.as_ref().is_none_or(|(b, _)| k < *b) {
                    let record = Arc::clone(target.record);
                    let plan = Plan { host: target.id, record, placement, perf, penalty };
                    *best = Some((k, plan));
                    if !can_win(&bound, best) {
                        break;
                    }
                }
            }
        }
    }
}

impl HostGuard<'_> {
    /// The commit step: if the record is still the one `plan` was
    /// scored on, frees `vacating` (the threads of a container moving
    /// within this host; empty otherwise) and reserves the planned
    /// threads. Equal `Arc`s are equal records, so that cannot fail.
    /// `false` when the host published since the plan was made:
    /// nothing is changed, copied or published.
    pub(crate) fn commit(&mut self, plan: &Plan, vacating: &[ThreadId]) -> bool {
        if !self.unchanged_since(&plan.record) {
            return false;
        }
        // Free first: a same-host move's new node set may overlap the
        // old one.
        self.release(vacating);
        self.reserve(&plan.placement.threads)
            .expect("the planned threads are free in the record they were scored on");
        true
    }
}

/// Why a commit attempt on one host produced no placement.
pub(crate) enum ChooseError {
    /// No goal-clearing placement class fits the host's free capacity
    /// (after a summary admitted it, this means the summary was stale
    /// or expressed a constraint it cannot see).
    Capacity(String),
    /// Free capacity exists, but co-location interference pushes every
    /// hostable class's adjusted prediction below the goal.
    Interference(String),
}

impl ChooseError {
    fn into_message(self) -> String {
        match self {
            ChooseError::Capacity(m) | ChooseError::Interference(m) => m,
        }
    }
}

/// Why [`PlacementEngine::release_ticket`] refused a ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReleaseError {
    /// No host's resident registry holds the ticket: the container was
    /// already released (double release) or the ticket never came from
    /// a commit on this engine. Nothing was freed.
    UnknownPlacement {
        /// The unresolvable ticket.
        ticket: PlacementTicket,
    },
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReleaseError::UnknownPlacement { ticket } => write!(
                f,
                "{ticket} is not live on any host: already released, or never committed here"
            ),
        }
    }
}

impl std::error::Error for ReleaseError {}

impl PlacementEngine {
    /// Releases a departing container by its handle's ticket — see
    /// [`Self::release_ticket`]. Only the ticket is read: after a
    /// [`Self::rebalance`] move the handle's machine and threads are
    /// stale, and the container is freed wherever it runs *now*.
    ///
    /// # Errors
    ///
    /// As [`Self::release_ticket`].
    ///
    /// # Examples
    ///
    /// ```
    /// use vc_engine::{EngineConfig, MachineId, PlacementEngine, PlacementRequest};
    /// use vc_topology::machines;
    ///
    /// let engine = PlacementEngine::single(
    ///     machines::amd_opteron_6272(),
    ///     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
    /// );
    /// // Four 16-vCPU containers fill the 64-thread machine...
    /// let req = PlacementRequest::new("WTbtree", 16);
    /// let live: Vec<_> = (0..4)
    ///     .map(|_| engine.place(&req).placed().expect("room").clone())
    ///     .collect();
    /// assert!(engine.place(&req).placed().is_none());
    /// // ...until one departs and hands its threads back.
    /// engine.release(&live[1]).unwrap();
    /// assert_eq!(engine.utilisation(MachineId(0)), (48, 64));
    /// let next = engine.place(&req).placed().expect("freed room").clone();
    /// assert_eq!(next.threads, live[1].threads);
    /// // A second release of the same handle is refused.
    /// assert!(engine.release(&live[1]).is_err());
    /// ```
    pub fn release(&self, placed: &Placed) -> Result<(), ReleaseError> {
        self.release_ticket(placed.ticket)
    }

    /// Releases the container holding `ticket`: removes its registry
    /// entry and frees the hardware threads it holds *right now*,
    /// wherever a [`Self::rebalance`] move may have put it. An
    /// engine-wide location map (maintained under the host locks by
    /// commit, release and rebalance moves) resolves the ticket in
    /// O(1), and a racing move between lookup and lock simply retries
    /// against the updated map — a live container can never be missed.
    ///
    /// # Errors
    ///
    /// [`ReleaseError::UnknownPlacement`] when no host's registry holds
    /// the ticket — a double release, or a ticket that never came from
    /// a commit. The occupancy maps and published summaries are left
    /// untouched, and the failure is counted in
    /// [`EngineStats::release_failures`].
    pub fn release_ticket(&self, ticket: PlacementTicket) -> Result<(), ReleaseError> {
        // Optimistic loop over the location map: copy the ticket's
        // current host (never holding the map while taking a host
        // lock), lock that host, re-validate. A miss under the host
        // lock means a rebalance move relocated the container between
        // the copy and the lock — re-read and retry; the map is
        // updated under the mover's host locks, so the re-read
        // converges. A ticket absent from the map is authoritatively
        // dead: only release removes entries.
        let mut scope = LockScope::new();
        loop {
            let location = self
                .locations
                .with(&mut scope, |map| map.get(&ticket.0).copied());
            let Some(idx) = location else {
                self.counters.release_failures.incr();
                return Err(ReleaseError::UnknownPlacement { ticket });
            };
            let mut host = self.lock_host(&mut scope, &self.hosts[idx]);
            if let Some(resident) = host.remove_resident(ticket) {
                // Drop the location entry *before* freeing the threads.
                // Should the release panic (it cannot, by invariant —
                // but poisoned locks are recovered, so every step must
                // tolerate one), this section's record edits die with
                // its guard: the container stays on the host, where
                // `audit` reports it unresolvable, but no later release
                // can spin on a map entry that outlived it.
                self.locations
                    .with(host.witness(), |map| map.remove(&ticket.0));
                host.release(&resident.threads);
                self.counters.releases.incr();
                return Ok(());
            }
        }
    }

    /// The plan for `cand` on host `id` with `record` as the host's
    /// record: the best goal-clearing class currently hostable, via the
    /// catalog's precomputed availability index (no node-set scoring
    /// happens here).
    ///
    /// With interference scoring on, each hostable class's idle-host
    /// prediction is multiplied by the occupancy-conditional co-location
    /// penalty against `record`'s *real* resident workloads before the
    /// goal filter and the ranking. `record` is a wait-free load, so a
    /// penalty cold miss simulates without any lock held. With it off,
    /// the penalty is identically `1.0` and the co-location memo is
    /// never consulted, reproducing neighbour-blind scoring bit for
    /// bit.
    ///
    /// Class preference among goal-clearing, currently-hostable
    /// classes: fewest nodes (cheapest for the operator), then fewest
    /// pristine nodes broken open (least fragmentation of contiguous
    /// room), then highest (adjusted) predicted performance, then the
    /// earlier class in `available`. `Err` carries a human-readable
    /// reason naming the exhausted node — or the interference, when
    /// capacity existed but every hostable class's adjusted prediction
    /// fell below the goal.
    ///
    /// The classes are walked through [`Self::score_walk`] by rank, then
    /// by idle prediction, descending, keyed `(rank, −adjusted, class
    /// id)` and bounded by `(rank, −max(idle, 0), class id)`: no class
    /// beats the best so far unless its idle prediction does (or ties it
    /// from an earlier class), and no member of a later rank group beats
    /// a goal-clearing member of an earlier one. When nothing clears the
    /// goal, nothing was skipped, and the interference count in the error
    /// is complete.
    fn best_available(
        &self,
        scope: &LockScope,
        id: MachineId,
        cand: &Candidate,
        record: Arc<HostSnapshot>,
    ) -> Result<Plan, ChooseError> {
        let host = &self.hosts[id.0];
        let occ = record.occupancy();
        let mut available = cand.catalog.availability.available(host.machine(), occ);
        let idle = |ap: &AvailablePlacement| cand.predicted[ap.id - 1];
        let rank = |ap: &AvailablePlacement| (ap.spec.num_nodes(), ap.pristine_consumed);
        // The penalty is ≤ 1, so a class whose idle-host prediction
        // already misses the goal cannot clear it adjusted.
        available.retain(|ap| idle(ap) >= cand.goal_perf);
        available.sort_by(|a, b| rank(a).cmp(&rank(b)).then(idle(b).total_cmp(&idle(a))));
        let classes = available.into_iter().map(|ap| {
            let bound = (rank(&ap), -idle(&ap).max(0.0), ap.id);
            (bound, idle(&ap), move || Some(ap))
        });
        let neighbours = if self.config().interference {
            Neighbours::Record(OnceCell::new())
        } else {
            Neighbours::Blind
        };
        let target = Target { id, record: &record, occ, neighbours };
        let mut best = None;
        let mut interference_blocked = 0usize;
        let key = |ap: &AvailablePlacement, perf: f64, _| {
            if perf < cand.goal_perf {
                interference_blocked += 1;
                return None;
            }
            Some((rank(ap), -perf, ap.id))
        };
        self.score_walk(scope, &cand.request.workload, &target, classes, key, &mut best);
        match best {
            Some((_, plan)) => Ok(plan),
            None if interference_blocked > 0 => Err(ChooseError::Interference(format!(
                "{}: {interference_blocked} placement class(es) fit the free capacity \
                 but co-location interference pushes every prediction below the goal",
                host.machine().name(),
            ))),
            None => {
                let node = occ.most_exhausted_node();
                Err(ChooseError::Capacity(format!(
                    "{}: no goal-clearing placement class fits the free capacity \
                     (node {} exhausted: {}/{} threads free)",
                    host.machine().name(),
                    node,
                    occ.free_on_node(node),
                    occ.capacity_of_node(node),
                )))
            }
        }
    }

    /// Commits `plan`, made for `cand` by [`Self::best_available`] on a
    /// published record with no lock held, through
    /// [`HostGuard::commit`], which re-publishes the host's lock-free
    /// views before the lock is dropped.
    ///
    /// A plan refused because a concurrent commit, release or move
    /// published on the host in between is re-planned on the fresh
    /// record (counted in [`SnapshotCounters::stale_retries`]), up to
    /// [`REPLANS`] plans in all. So the request is never bounced off a
    /// host that still has room because of a racing neighbour, and what
    /// it commits — class, threads, prediction and penalty — is what
    /// serial admission would choose on the record it lands on.
    fn try_commit(
        &self,
        scope: &mut LockScope,
        mut plan: Plan,
        cand: &Candidate,
    ) -> Result<Placed, ChooseError> {
        let id = plan.host;
        let host = &self.hosts[id.0];
        for planned in 1..=REPLANS {
            let mut guard = self.lock_host(scope, host);
            if guard.commit(&plan, &[]) {
                let placed = plan.placed(PlacementTicket(self.next_ticket.incr()), cand.goal_perf);
                self.register(&mut guard, &placed, cand);
                return Ok(placed);
            }
            drop(guard);
            self.counters.snapshot_stale_retries.incr();
            if planned < REPLANS {
                plan = self.best_available(scope, id, cand, self.view(host))?;
            }
        }
        Err(ChooseError::Capacity(format!(
            "{}: its record kept changing between plan and commit \
             ({REPLANS} plans refused)",
            host.machine().name()
        )))
    }

    /// Records a freshly committed placement in the host's resident
    /// registry and the engine's location map — called under the same
    /// critical section as the thread reservation, so registry and
    /// occupancy never disagree and the ticket is releasable the
    /// moment the committing caller can see it.
    ///
    /// Registry before location map: poisoned host locks are recovered,
    /// so a panic between the two inserts must not leave a location
    /// entry whose registry entry never appeared — `release` would spin
    /// forever resolving it. The safe partial state is the reverse
    /// (registered but unlocatable: the commit panicked before
    /// returning, so no caller holds the ticket to release).
    fn register(&self, host: &mut HostGuard<'_>, placed: &Placed, cand: &Candidate) {
        host.insert_resident(Resident {
            ticket: placed.ticket,
            request: cand.request.clone(),
            placement_id: placed.placement_id,
            spec: placed.spec.clone(),
            threads: placed.threads.clone(),
            predicted_perf: placed.predicted_perf,
            interference_penalty: placed.interference_penalty,
            goal_perf: placed.goal_perf,
            moved_in_pass: None,
        });
        self.locations
            .with(host.witness(), |map| map.insert(placed.ticket.0, placed.machine.0));
    }

    /// Places a single request (see [`Self::place_batch`]).
    pub fn place(&self, req: &PlacementRequest) -> PlacementDecision {
        self.place_batch(std::slice::from_ref(req), BatchStrategy::FirstFit)
            .pop()
            .expect("one decision per request")
    }

    /// Places a stream of requests across the fleet.
    ///
    /// Candidate evaluation (probing + prediction, cache-warming on cold
    /// paths) runs once per `(request, machine class)` — not per host —
    /// sharded over scoped worker threads; commitment is then sequential
    /// in request order, so results are deterministic and occupancy
    /// accounting is exact. Hosts whose lock-free capacity summary rules
    /// out every goal-clearing placement class are skipped without
    /// taking their occupancy lock. Each commit reserves the concrete
    /// hardware threads of a placement class retargeted onto currently
    /// free node sets (precomputed equivalence classes, no scoring under
    /// the lock), under the host's lock and only onto the record it was
    /// scored on — committed containers never share hardware threads,
    /// even across concurrent batches. A host admitted by a stale
    /// summary that its record then rejects is passed over, and the
    /// walk goes on to the rest. Requests that fit nowhere — or whose
    /// goal no machine class is predicted to meet — are rejected with a
    /// reason naming the exhausted node.
    pub fn place_batch(
        &self,
        reqs: &[PlacementRequest],
        strategy: BatchStrategy,
    ) -> Vec<PlacementDecision> {
        // Phase 1: evaluate every (request, machine class) candidate in
        // parallel. Pure reads plus cache fills; no capacity is touched.
        let mut scope = LockScope::new();
        let candidates = self.evaluate_candidates(&scope, reqs);

        // Phase 2: commit sequentially in request order. A host whose
        // record holds no plan (exhausted by earlier requests in this
        // batch or by a concurrent batch) is passed over, and the
        // request is planned on the rest.
        let mut decisions = Vec::with_capacity(reqs.len());
        for options in candidates {
            decisions.push(self.commit_one(&mut scope, &options, strategy));
        }
        decisions
    }

    /// Phase 2 for one request: walk the members of goal-clearing
    /// classes, prefiltered by sketches and capacity summaries, plan
    /// each admitted host once on its published record, and commit the
    /// plan `strategy` picks. The walk repeats only after that commit
    /// lost a race for its host.
    fn commit_one(
        &self,
        scope: &mut LockScope,
        options: &[Result<Candidate, String>],
        strategy: BatchStrategy,
    ) -> PlacementDecision {
        let mut commit_errors: Vec<String> = Vec::new();
        let mut tried = vec![false; self.hosts.len()];
        // Viable class candidates, indexed by class for host lookup.
        let mut viable: Vec<Option<&Candidate>> = vec![None; self.fleet.num_classes()];
        for c in options.iter().filter_map(|c| c.as_ref().ok()) {
            if c.goal_met() {
                viable[c.class] = Some(c);
            }
        }
        loop {
            // Hosts the summary prefilter ruled out on this walk (used
            // to explain rejections without ever locking them), hosts
            // whole shards of which the sketch descent never read, and
            // admitted hosts whose record held no plan.
            let mut skipped: Vec<usize> = Vec::new();
            let mut sketch_skipped = 0;
            let mut failed: Vec<(MachineId, ChooseError)> = Vec::new();
            // Plans an admitted host on its published record: wait-free,
            // so penalty cold misses simulate with no lock held.
            let mut plan = |id: MachineId, cand: &Candidate| {
                self.best_available(scope, id, cand, self.view(&self.hosts[id.0]))
                    .map_err(|e| failed.push((id, e)))
                    .ok()
            };
            let chosen: Option<(Plan, &Candidate)> = match strategy {
                BatchStrategy::FirstFit => {
                    // The first member (fleet order) of a goal-clearing
                    // class whose record holds a plan wins.
                    let mut found = None;
                    self.walk_admitted(&viable, &tried, &mut skipped, &mut sketch_skipped, |id, cand| {
                        found = plan(id, cand).map(|p| (p, cand));
                        found.is_some()
                    });
                    found
                }
                BatchStrategy::BestScore => {
                    // Class-ranked, lazily-realised commitment (the
                    // fleet-scale shape of "best predicted machine"):
                    //
                    // 1. machine classes are ranked by their idle-host
                    //    ceiling (best goal-clearing prediction),
                    //    descending;
                    // 2. members of the leading classes are planned in
                    //    fleet order — a plan's prediction is the
                    //    occupancy- (and, when enabled, interference-)
                    //    adjusted score of the placement it commits;
                    // 3. a class's walk stops at its first *idle*
                    //    member: every other idle member would plan
                    //    the identical class-canonical placement and
                    //    then lose the lowest-id tie-break;
                    // 4. branch-and-bound over the remaining classes:
                    //    a plan never exceeds its class's ceiling, so
                    //    once the best plan found so far beats a
                    //    class's ceiling outright, that class (and
                    //    every lower-ranked one) is never planned — it
                    //    provably cannot produce a better plan. Ceiling
                    //    ties keep walking, preserving the lowest-id
                    //    tie-break.
                    //
                    // The best plan is committed (highest adjusted
                    // score, ties to the lowest machine id) —
                    // deterministic, and on multi-class fleets the plan
                    // count collapses from one per admitted host to a
                    // handful ([`EngineStats::offers`]; `benchmark/`
                    // reports it per request as the per-layer
                    // `engine.offers` of `batch_packed`).
                    let mut ranked: Vec<&Candidate> = viable.iter().filter_map(|c| *c).collect();
                    ranked.sort_by(|a, b| b.best_perf.total_cmp(&a.best_perf));
                    let mut best: Option<(Plan, &Candidate)> = None;
                    for cand in ranked {
                        if best.as_ref().is_some_and(|(b, _)| cand.best_perf < b.perf) {
                            break; // no member can beat or tie the best plan
                        }
                        let mut class_only: Vec<Option<&Candidate>> =
                            vec![None; self.fleet.num_classes()];
                        class_only[cand.class] = Some(cand);
                        self.walk_admitted(&class_only, &tried, &mut skipped, &mut sketch_skipped, |id, cand| {
                            self.counters.offers.incr();
                            let Some(p) = plan(id, cand) else { return false };
                            let idle = p.record.occupancy().used_threads() == 0;
                            if best.as_ref().is_none_or(|(b, _)| {
                                p.perf > b.perf || (p.perf == b.perf && id < b.host)
                            }) {
                                best = Some((p, cand));
                            }
                            idle
                        });
                    }
                    best
                }
            };
            for (id, e) in failed {
                // The summary admitted the host, but it was stale (the
                // record is the authority) or interference blocked every
                // goal-clearing class: count which.
                self.count_choose_error(&e);
                tried[id.0] = true;
                commit_errors.push(e.into_message());
            }
            let Some((plan, cand)) = chosen else {
                return PlacementDecision::Rejected {
                    reason: self.rejection_reason(
                        options,
                        &commit_errors,
                        &skipped,
                        sketch_skipped,
                    ),
                };
            };
            tried[plan.host.0] = true;
            match self.try_commit(scope, plan, cand) {
                Ok(p) => return PlacementDecision::Placed(p),
                Err(e) => {
                    // The plan lost a race, and its re-plans found no
                    // room or kept losing: walk the untried hosts again.
                    self.count_choose_error(&e);
                    commit_errors.push(e.into_message());
                }
            }
        }
    }

    fn count_choose_error(&self, e: &ChooseError) {
        match e {
            ChooseError::Capacity(_) => {
                self.counters.summary_stale.incr();
            }
            ChooseError::Interference(_) => {
                self.counters.interference_blocked.incr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fast_test_config, EngineConfig};
    use std::cell::RefCell;
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, NodeId};

    /// What [`walk`] saw: the winner's `(key, id)`, the classes it
    /// realised and the realisations it keyed, in order.
    type Walked = (Option<(f64, usize)>, Vec<usize>, Vec<usize>);

    /// Runs the scoring walk neighbour-blind over `classes`, each a bound
    /// and its realisations as `(id, key)`, lower keys winning.
    fn walk(classes: &[(f64, &[(usize, f64)])]) -> Walked {
        let engine = PlacementEngine::single(machines::amd_opteron_6272(), fast_test_config());
        let record = engine.host_snapshot(MachineId(0));
        let occ = record.occupancy();
        let neighbours = Neighbours::Blind;
        let target = Target { id: MachineId(0), record: &record, occ, neighbours };
        let (realised, keyed) = (&RefCell::new(Vec::new()), &RefCell::new(Vec::new()));
        let walked = classes.iter().enumerate().map(|(class, &(bound, members))| {
            let realise = move || {
                realised.borrow_mut().push(class);
                members.iter().map(|&(id, _)| AvailablePlacement {
                    id,
                    spec: PlacementSpec::on_nodes(4, vec![NodeId(0)], 2),
                    threads: Vec::new(),
                    pristine_consumed: 0,
                })
            };
            (bound, 1.0, realise)
        });
        let key = |ap: &AvailablePlacement, perf: f64, penalty: f64| {
            assert_eq!((perf, penalty), (1.0, 1.0), "neighbour-blind: the idle prediction");
            keyed.borrow_mut().push(ap.id);
            let mut members = classes.iter().flat_map(|(_, members)| members.iter());
            members.find(|(id, _)| *id == ap.id).map(|&(_, key)| key)
        };
        let mut best = None;
        engine.score_walk(&LockScope::new(), "WTbtree", &target, walked, key, &mut best);
        let best = best.map(|(key, plan)| (key, plan.placement.id));
        (best, realised.take(), keyed.take())
    }

    /// The walk prices no realisation that cannot win. The bounds here
    /// overstate on purpose, so every realisation the walk must not
    /// reach would win if it were scored.
    #[test]
    fn the_scoring_walk_prices_only_what_can_win() {
        // A class whose bound ties or exceeds the best key is never
        // realised.
        let skipped = walk(&[(0.0, &[(1, 2.0)]), (2.0, &[(2, 0.0)]), (3.0, &[(3, 0.0)])]);
        assert_eq!(skipped, (Some((2.0, 1)), vec![0], vec![1]));
        // A class is left once the best key is no longer above its
        // bound, and walked on while it is.
        let left = walk(&[(0.5, &[(1, 1.0), (2, 0.5), (3, 0.25)])]);
        assert_eq!(left, (Some((0.5, 2)), vec![0], vec![1, 2]));
        // Of two equal keys the earlier wins, in a class or across.
        let tied = walk(&[(0.0, &[(1, 1.0), (2, 1.0)]), (0.0, &[(3, 1.0)])]);
        assert_eq!(tied, (Some((1.0, 1)), vec![0, 1], vec![1, 2, 3]));
    }

    /// An admission planned before its neighbour departs holds threads
    /// that are still free, but prices a neighbour that is gone — and
    /// serial admission on the new record picks another node set. The
    /// commit step refuses it without changing or publishing anything,
    /// and `try_commit`, handed the stale plan, re-plans once and lands
    /// exactly what serial admission plans on the new record.
    #[test]
    fn a_plan_is_refused_once_its_host_publishes() {
        let id = MachineId(0);
        let engine = PlacementEngine::single(
            machines::amd_opteron_6272(),
            EngineConfig {
                interference: true,
                ..fast_test_config()
            },
        );
        let neighbour = engine.place(&PlacementRequest::new("streamcluster", 4));
        let neighbour = neighbour.placed().expect("the host is idle").clone();
        let req = PlacementRequest::new("WTbtree", 4).with_probe_seed(7);
        let plan = |engine: &PlacementEngine| {
            let scope = LockScope::new();
            let cand = engine.evaluate(&scope, 0, &req).unwrap();
            let plan = engine.best_available(&scope, id, &cand, engine.host_snapshot(id));
            plan.ok().expect("the host has room")
        };
        let stale = plan(&engine);
        assert!(stale.penalty < 1.0, "the plan prices its neighbour");

        engine.release(&neighbour).unwrap();
        let fresh = plan(&engine);
        assert_eq!(fresh.penalty, 1.0, "the host is idle now");
        assert_ne!(stale.placement.threads, fresh.placement.threads);
        let record = engine.host_snapshot(id);
        let free = record.occupancy().check_reserve(&stale.placement.threads);
        assert!(free.is_ok(), "the stale plan's threads are still free");

        let published = engine.stats().snapshot.published;
        let mut scope = LockScope::new();
        let mut guard = engine.lock_host(&mut scope, &engine.hosts[0]);
        assert!(!guard.commit(&stale, &[]));
        drop(guard);
        let now = engine.stats().snapshot.published;
        assert_eq!(now, published, "a refusal published");
        assert!(Arc::ptr_eq(&engine.host_snapshot(id), &record));

        let cand = engine.evaluate(&scope, 0, &req).unwrap();
        let placed = engine.try_commit(&mut scope, stale, &cand).ok().expect("room");
        assert_eq!(placed.threads, fresh.placement.threads);
        assert_eq!(placed.interference_penalty, fresh.penalty);
        assert_eq!(placed.predicted_perf, fresh.perf);
        assert_eq!(engine.stats().snapshot.stale_retries, 1);
        drop(scope);
        engine.audit().unwrap();
    }
}
