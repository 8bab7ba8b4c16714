//! Degradation-budget rebalancing: re-score the live population, move
//! what the budget condemns — if the move pays for itself.
//!
//! Admission-time scoring (even interference-aware scoring) freezes a
//! decision at arrival: later arrivals pile new neighbours next to old
//! residents, so a placement that cleared every bar when it committed
//! can degrade arbitrarily afterwards — and in the PR-4 engine nothing
//! would ever move it. This module closes the loop the way Phoenix
//! (performance-aware re-orchestration, arXiv:2502.10923) and MAO
//! (warehouse-scale NUMA re-optimisation, arXiv:2411.01460) argue a
//! placement service must: measure, select, *price*, and only then act.
//!
//! [`PlacementEngine::rebalance`] walks the resident registry and, for
//! every resident whose predicted co-location degradation exceeds
//! [`EngineConfig::degradation_budget`](crate::EngineConfig::degradation_budget),
//! plans the best alternative placement across the fleet (scored with
//! the *real* neighbour workloads, minus the resident itself), prices
//! the move with the §7 migration cost model
//! ([`vc_migration::MigrationModel`], Table 2 — fast / throttled /
//! default-Linux modes), and executes only moves whose predicted
//! benefit over [`RebalancePolicy::expected_runtime_s`] beats the
//! migration's own lost work. Scoring and pricing run against
//! snapshots — no simulator call and no migration-model call ever
//! happens under a host lock. A move commits through the same
//! commit-if-unchanged step as an admission: exactly the placement it
//! scored, and only if the source and target hosts still hold the very
//! snapshots it scored against (`Arc` identity, which changes once per
//! publication). The lock-held part is bookkeeping that cannot fail
//! against those records. A move refused because a host changed
//! meanwhile is re-planned once, on fresh snapshots; a second refusal
//! counts as a failed commit.
//!
//! This module is the whole move path: planning, the gates, and the
//! commit under the host locks.

use std::cell::OnceCell;
use std::sync::Arc;

use vc_core::availability::AvailablePlacement;
use vc_core::interference::ResidentWorkload;
use vc_migration::{MigrationEstimate, MigrationMode, MigrationModel};
use vc_sync::lock::LockScope;
use vc_topology::OccupancyMap;

use crate::commit::{Neighbours, Plan, Target};
use crate::engine::{
    Candidate, MachineId, Placed, PlacementEngine, PlacementRequest, PlacementTicket, Resident,
};
use crate::host::HostSnapshot;

/// How [`PlacementEngine::rebalance`] prices and gates migrations.
#[derive(Debug, Clone)]
pub struct RebalancePolicy {
    /// The calibrated Table 2 cost constants.
    pub model: MigrationModel,
    /// How moves are executed (freeze-and-copy fast migration by
    /// default; throttled or stock-Linux for sensitivity studies).
    pub mode: MigrationMode,
    /// Runtime (s) credited to a move when weighing benefit against
    /// cost: a move recovering `Δdegradation` of throughput is worth
    /// `Δdegradation × expected_runtime_s` seconds of work, and must
    /// beat the work the migration itself destroys (freeze time plus
    /// slowdown during the copy). Short horizons make the gate strict —
    /// a container about to depart is not worth moving.
    pub expected_runtime_s: f64,
    /// Move hysteresis: a ticket moved in pass `p` is not even
    /// *examined* again until pass `p + cooldown_passes + 1` — the
    /// pass-driven analogue of "never re-move a just-moved container".
    /// A periodic loop otherwise ping-pongs a container between two
    /// near-equal homes as arrivals keep re-tilting the balance, paying
    /// the Table 2 freeze every interval. `0` (the default) disables
    /// the cooldown; admission behaviour and single-shot passes are
    /// bit-for-bit those of the pre-hysteresis engine.
    ///
    /// Every executed move stamps the container's record with its pass
    /// ([`Resident::moved_in_pass`]), whatever that pass's policy, so
    /// the window counts from the last move: a pass run with `0` in
    /// between suppresses nothing, but does not erase the history a
    /// later pass reads. For a fixed policy this changes nothing.
    pub cooldown_passes: u64,
    /// Upper bound on data moved per pass (GB). Each cost-justified move
    /// is checked against the pass's running total: one that would push
    /// the total over the cap is skipped and counted in
    /// [`RebalanceReport::blocked_by_gb_cap`], and a later move that
    /// still fits executes — bounding the migration bandwidth a
    /// background loop can consume per interval. `None` (the default)
    /// leaves the pass uncapped.
    pub max_moved_gb_per_pass: Option<f64>,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            model: MigrationModel::default(),
            mode: MigrationMode::Fast,
            expected_runtime_s: 600.0,
            cooldown_passes: 0,
            max_moved_gb_per_pass: None,
        }
    }
}

impl RebalancePolicy {
    /// Sets the re-move cooldown (in passes).
    pub fn with_cooldown_passes(mut self, passes: u64) -> Self {
        self.cooldown_passes = passes;
        self
    }

    /// Caps the data moved per pass (GB).
    pub fn with_moved_gb_cap(mut self, gb: f64) -> Self {
        self.max_moved_gb_per_pass = Some(gb);
        self
    }

    /// Whether `resident` is inside its cooldown window during pass
    /// `pass`.
    fn cooling(&self, resident: &Resident, pass: u64) -> bool {
        self.cooldown_passes > 0
            && resident
                .moved_in_pass
                .is_some_and(|moved| pass.saturating_sub(moved) <= self.cooldown_passes)
    }

    /// Work (in seconds) the migration itself destroys: the freeze plus
    /// the throughput lost while copying concurrently.
    pub fn cost_s(&self, estimate: &MigrationEstimate) -> f64 {
        estimate.frozen_s + estimate.runtime_overhead_pct / 100.0 * estimate.duration_s
    }

    /// Work (in seconds) a degradation reduction recovers over the
    /// credited runtime.
    pub fn benefit_s(&self, degradation_before: f64, degradation_after: f64) -> f64 {
        (degradation_before - degradation_after) * self.expected_runtime_s
    }
}

/// One executed migration.
#[derive(Debug, Clone)]
pub struct Migration {
    /// The moved container's engine-wide identity (unchanged by the
    /// move — the admission-time [`Placed`] handle still releases it).
    pub ticket: PlacementTicket,
    /// The moved container's workload.
    pub workload: String,
    /// Host the container left.
    pub from: MachineId,
    /// Host the container landed on (may equal `from`: a move onto a
    /// less-contended node set of the same machine).
    pub to: MachineId,
    /// Predicted degradation in the old placement (what condemned it).
    pub degradation_before: f64,
    /// Predicted degradation in the new placement.
    pub degradation_after: f64,
    /// The Table 2 price actually charged for the move.
    pub estimate: MigrationEstimate,
    /// The new placement (same ticket, new spec/threads).
    pub placed: Placed,
}

/// What one [`PlacementEngine::rebalance`] pass did.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Resident examinations (the whole live population, unless the
    /// budget is unset — then rebalancing is disabled and nothing is
    /// scanned). A resident migrated to a host the pass has not reached
    /// yet is examined *again* in its new home, so this can exceed the
    /// population by up to [`Self::migrations`]`.len()`.
    pub scanned: usize,
    /// Residents whose predicted degradation exceeded the budget.
    pub over_budget: usize,
    /// Executed moves, selection order.
    pub migrations: Vec<Migration>,
    /// Over-budget residents left in place because no candidate
    /// placement predicted a strictly lower degradation.
    pub blocked_no_target: usize,
    /// Over-budget residents left in place because the best move's
    /// predicted benefit did not beat its migration cost.
    pub blocked_by_cost: usize,
    /// Moves abandoned at commit time because the source or the target
    /// host published after the move was planned, twice. A move commits
    /// only if each host's record is still the very snapshot `Arc` it
    /// scored, so any concurrent commit, release or move there — the
    /// resident's own departure included — refuses it, and nothing is
    /// changed or published. A refused move is examined once more on
    /// fresh snapshots (and may then move, be blocked, or turn out to
    /// be within budget); only a second refusal is counted here. The
    /// resident stays where it was, and the next pass retries.
    pub failed_commits: usize,
    /// Host mutex acquisitions this pass performed — its own
    /// [`LockScope::granted`], so concurrent clients' commits and
    /// releases are never charged to it. Planning is wait-free, so this
    /// is exactly the commit bookkeeping: one lock per same-host commit
    /// attempt, two per cross-host attempt, executed or refused —
    /// asserted in tests.
    pub host_lock_acquisitions: u64,
    /// Engine-wide index of this pass (1-based; the clock
    /// [`RebalancePolicy::cooldown_passes`] counts in). `0` only for
    /// the no-op report of a budget-less engine.
    pub pass: u64,
    /// Residents skipped without being re-scored because they were
    /// moved within the last [`RebalancePolicy::cooldown_passes`]
    /// passes. Each skip is a potential re-move the hysteresis
    /// suppressed — and a simulation probe it never paid for.
    pub suppressed_by_cooldown: usize,
    /// Cost-justified moves skipped because executing them would push
    /// the pass's moved-GB total over
    /// [`RebalancePolicy::max_moved_gb_per_pass`]. The residents stay
    /// over budget and the next pass reconsiders them.
    pub blocked_by_gb_cap: usize,
}

impl RebalanceReport {
    /// Total data moved across all executed migrations (GB).
    pub fn moved_gb(&self) -> f64 {
        // fold, not sum: std's empty f64 sum is the additive identity
        // -0.0, which leaks a "-0.00" into reports.
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.estimate.moved_gb)
    }

    /// Total container freeze time across all executed migrations (s).
    pub fn frozen_s(&self) -> f64 {
        self.migrations
            .iter()
            .fold(0.0, |acc, m| acc + m.estimate.frozen_s)
    }
}

/// [`RebalanceReport`]s summed over many passes — what a periodic
/// rebalancer (the daemon's loop, a load driver's background thread)
/// did in total.
///
/// # Examples
///
/// ```
/// use vc_engine::{
///     EngineConfig, PlacementEngine, PlacementRequest, RebalancePolicy, RebalanceTotals,
/// };
/// use vc_topology::machines;
///
/// // No degradation budget: passes run, and are counted, but scan and
/// // move nothing.
/// let engine = PlacementEngine::single(
///     machines::amd_opteron_6272(),
///     EngineConfig { extra_synthetic: 0, ..EngineConfig::default() },
/// );
/// engine.place(&PlacementRequest::new("swaptions", 16)).placed().expect("room");
/// let mut totals = RebalanceTotals::default();
/// for _ in 0..3 {
///     totals.absorb(&engine.rebalance(&RebalancePolicy::default()));
/// }
/// assert_eq!(totals.passes, 3);
/// assert_eq!((totals.scanned, totals.migrations), (0, 0));
/// assert_eq!(totals.moved_gb, 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebalanceTotals {
    /// Passes absorbed (no-op passes of a budget-less engine included).
    pub passes: usize,
    /// Resident examinations across all passes.
    pub scanned: usize,
    /// Residents found over the degradation budget.
    pub over_budget: usize,
    /// Migrations executed.
    pub migrations: usize,
    /// Over-budget residents kept in place because the best move's
    /// benefit did not beat its migration cost.
    pub blocked_by_cost: usize,
    /// Over-budget residents with no strictly better placement.
    pub blocked_no_target: usize,
    /// Moves abandoned at commit time because a host published since
    /// the plan (lost races).
    pub failed_commits: usize,
    /// Re-examinations suppressed by the move cooldown.
    pub suppressed_by_cooldown: usize,
    /// Cost-justified moves deferred by the per-pass moved-GB cap.
    pub blocked_by_gb_cap: usize,
    /// Total data moved by executed migrations (GB).
    pub moved_gb: f64,
    /// Total container freeze time charged by executed migrations (s).
    pub frozen_s: f64,
    /// Sum of predicted degradations of moved containers before their
    /// moves (divide by [`Self::migrations`] for the mean).
    pub degradation_before_sum: f64,
    /// Sum of predicted degradations of moved containers after their
    /// moves.
    pub degradation_after_sum: f64,
}

impl RebalanceTotals {
    /// Adds one pass's report to the totals.
    pub fn absorb(&mut self, report: &RebalanceReport) {
        self.passes += 1;
        self.scanned += report.scanned;
        self.over_budget += report.over_budget;
        self.migrations += report.migrations.len();
        self.blocked_by_cost += report.blocked_by_cost;
        self.blocked_no_target += report.blocked_no_target;
        self.failed_commits += report.failed_commits;
        self.suppressed_by_cooldown += report.suppressed_by_cooldown;
        self.blocked_by_gb_cap += report.blocked_by_gb_cap;
        self.moved_gb += report.moved_gb();
        self.frozen_s += report.frozen_s();
        for m in &report.migrations {
            self.degradation_before_sum += m.degradation_before;
            self.degradation_after_sum += m.degradation_after;
        }
    }

    /// Mean predicted degradation of moved containers before their
    /// moves (0.0 when nothing moved).
    pub fn mean_degradation_before(&self) -> f64 {
        self.degradation_before_sum / self.migrations.max(1) as f64
    }

    /// Mean predicted degradation of moved containers after their moves
    /// (0.0 when nothing moved).
    pub fn mean_degradation_after(&self) -> f64 {
        self.degradation_after_sum / self.migrations.max(1) as f64
    }
}

/// A resident's host as one step of a pass scores it.
struct Home<'a> {
    id: MachineId,
    /// The host snapshot loaded for this step. The resident's
    /// degradation, a same-host [`Target`] and the move's source all
    /// read it, and a move commits only if the host still holds this
    /// `Arc`.
    snapshot: &'a Arc<HostSnapshot>,
    /// `snapshot`'s occupancy with the resident's threads freed.
    occ: OccupancyMap,
    /// `snapshot`'s residents except the one being scored.
    others: Vec<ResidentWorkload>,
}

impl<'a> Home<'a> {
    /// `snapshot` of host `id` as `resident`, one of its entries, sees
    /// it: without itself.
    fn new(id: MachineId, snapshot: &'a Arc<HostSnapshot>, resident: &Resident) -> Home<'a> {
        let mut occ = snapshot.occupancy().clone();
        occ.release(&resident.threads)
            .expect("snapshot registry threads are reserved in the snapshot occupancy");
        Home {
            id,
            snapshot,
            occ,
            others: snapshot.resident_workloads_without(resident.ticket),
        }
    }
}

/// The order move plans are chosen by, lowest first: predicted
/// degradation, then higher adjusted prediction, then staying on the
/// current machine (an intra-machine node-set move is the §7 setting
/// the Table 2 costs were measured in; a cross-host move is at best as
/// cheap), then the lower machine id — a total, deterministic order.
type MoveKey = (f64, f64, u8, usize);

/// The [`MoveKey`] of a placement on `host` with `penalty` and
/// adjusted prediction `perf`, for a mover from `src`.
fn move_key(host: MachineId, perf: f64, penalty: f64, src: MachineId) -> MoveKey {
    (1.0 - penalty, -perf, (host != src) as u8, host.0)
}

impl PlacementEngine {
    /// One rebalancing pass over the live population.
    ///
    /// No-op unless
    /// [`EngineConfig::degradation_budget`](crate::EngineConfig::degradation_budget)
    /// is set (admission behaviour with the budget unset is bit-for-bit
    /// that of a budget-less engine; equivalence-tested). With it set:
    ///
    /// 1. **Re-score** every resident against a consistent
    ///    `(occupancy, residents)` snapshot of its host, *minus
    ///    itself*: its predicted degradation is `1 − penalty` with the
    ///    real neighbour workloads running. Within budget → untouched.
    /// 2. **Plan** the best alternative placement fleet-wide for each
    ///    over-budget resident (lowest predicted degradation, then
    ///    highest adjusted prediction, then lowest machine id): every
    ///    summary-admissible host is scored over its full availability
    ///    orbits on its published snapshot, idle hosts first, and a
    ///    class that provably cannot beat the best plan so far is never
    ///    realised.
    /// 3. **Price** the move with [`RebalancePolicy::model`] in
    ///    [`RebalancePolicy::mode`] and execute it only when
    ///    `benefit_s > cost_s` ([`RebalancePolicy`] documents both
    ///    sides). Everything expensive — co-location simulation,
    ///    pricing — happens on snapshots with no host lock held.
    /// 4. **Commit** the planned placement under the host lock(s), only
    ///    if both hosts still hold the snapshots the plan scored. A
    ///    host that published meanwhile refuses the move, which is
    ///    examined once more on fresh snapshots; a second refusal is a
    ///    counted [`RebalanceReport::failed_commits`], never a forced
    ///    move.
    ///
    /// The moved container keeps its [`PlacementTicket`], so handles
    /// returned at admission still release it.
    pub fn rebalance(&self, policy: &RebalancePolicy) -> RebalanceReport {
        self.rebalance_planned_by(&mut LockScope::new(), policy, Self::plan_move)
    }

    /// [`Self::rebalance`] on `scope` (fresh: its grants are the pass's
    /// lock count) with `planner` in [`Self::plan_move`]'s place (the
    /// tests run passes with an exhaustive one).
    fn rebalance_planned_by(
        &self,
        scope: &mut LockScope,
        policy: &RebalancePolicy,
        planner: impl Fn(&Self, &LockScope, &Home<'_>, &PlacementRequest, f64) -> Option<Plan>,
    ) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        // The engine-wide pass clock (1-based) ticks even when the
        // budget is unset.
        let pass = self.counters.rebalance_passes.incr() + 1;
        let Some(budget) = self.config().degradation_budget else {
            return report;
        };
        report.pass = pass;
        let mut pass_moved_gb = 0.0_f64;
        for src in self.machine_ids() {
            let listed = self.host_snapshot(src);
            for entry in listed.residents() {
                report.scanned += 1;
                // Hysteresis: a just-moved ticket is not even re-scored
                // until its cooldown expires — re-moving it would pay a
                // second freeze to chase a landscape that is still
                // settling around the first move.
                if policy.cooling(entry, pass) {
                    report.suppressed_by_cooldown += 1;
                    continue;
                }
                // A move refused at commit re-plans once, from fresh
                // snapshots; only a second refusal is a failed commit.
                for attempt in 0..2 {
                    // Fresh per-resident snapshot: earlier moves in this
                    // same pass changed the landscape.
                    let snapshot = self.host_snapshot(src);
                    let Some(resident) = snapshot.resident(entry.ticket) else {
                        break; // departed since the outer snapshot
                    };
                    let home = Home::new(src, &snapshot, resident);
                    let degradation = 1.0
                        - self.hosts[src.0].sim(scope).penalty(
                            &resident.request.workload,
                            &resident.threads,
                            &home.occ,
                            &home.others,
                        );
                    if degradation <= budget {
                        break;
                    }
                    if attempt == 0 {
                        report.over_budget += 1;
                    }
                    let Some(plan) = planner(self, scope, &home, &resident.request, degradation) else {
                        report.blocked_no_target += 1;
                        break;
                    };
                    // Price the move — Table 2, on the real descriptor
                    // (so generated or renamed workloads keep their
                    // calibrated THP fraction).
                    let workload = self.hosts[src.0]
                        .sim(scope)
                        .workloads()
                        .iter()
                        .find(|w| w.name == resident.request.workload)
                        .expect("resident workloads resolve against their host's oracle");
                    let estimate = policy.model.estimate(workload, policy.mode);
                    let degradation_after = 1.0 - plan.penalty;
                    let benefit = policy.benefit_s(degradation, degradation_after);
                    if benefit <= policy.cost_s(&estimate) {
                        report.blocked_by_cost += 1;
                        break;
                    }
                    // Per-pass bandwidth cap: a cost-justified move still
                    // waits for a later pass when this one has already
                    // shifted its GB allowance.
                    if let Some(cap) = policy.max_moved_gb_per_pass {
                        if pass_moved_gb + estimate.moved_gb > cap {
                            report.blocked_by_gb_cap += 1;
                            break;
                        }
                    }
                    match self.commit_move(scope, pass, &home, resident, plan) {
                        Some(placed) => {
                            pass_moved_gb += estimate.moved_gb;
                            report.migrations.push(Migration {
                                ticket: resident.ticket,
                                workload: resident.request.workload.clone(),
                                from: src,
                                to: placed.machine,
                                degradation_before: degradation,
                                degradation_after,
                                estimate,
                                placed,
                            });
                            break;
                        }
                        None if attempt == 1 => report.failed_commits += 1,
                        None => {}
                    }
                }
            }
        }
        report.host_lock_acquisitions = scope.granted();
        report
    }

    /// The best alternative placement for an over-budget resident:
    /// every machine class is re-evaluated from the original admission
    /// `request` (warm-cache work) and every summary-admissible host
    /// scored on its snapshot — the resident's own host *minus itself*
    /// (`home`), so staying on freed-up local nodes competes fairly
    /// with moving away. The plan is the lowest [`MoveKey`] over every
    /// hostable realisation of every goal-clearing class on those
    /// hosts (full availability orbits, not admission's
    /// fragmentation-first head: on the victim's own host the head
    /// would re-offer a stacked victim the very node set beside its
    /// noisy neighbour), ties to the first realisation scored on the
    /// host. Returns `None` when no candidate strictly improves on
    /// `degradation_before`.
    ///
    /// Only realisations that could still win are scored: each host goes
    /// through [`Self::score_walk`] with the classes in catalog order,
    /// bounded by the [`MoveKey`] of a realisation with penalty `1.0`.
    /// Idle hosts are scored first: their penalties are `1.0` without a
    /// simulation, and the plan they set prunes most of the busy hosts'
    /// classes. Keys are unique per host, so the order hosts are scored
    /// in does not change the plan.
    fn plan_move(
        &self,
        scope: &LockScope,
        home: &Home<'_>,
        request: &PlacementRequest,
        degradation_before: f64,
    ) -> Option<Plan> {
        let candidates: Vec<Candidate> = (0..self.fleet_index().num_classes())
            .filter_map(|class| self.evaluate(scope, class, request).ok())
            .collect();
        // Every admissible host once, with the record it is scored on.
        let mut targets = Vec::new();
        for cand in &candidates {
            for &id in self.fleet_index().classes()[cand.class].members() {
                // Lock-free prefilter, exactly like admission: a host
                // whose summary leaves no goal-clearing shape possible
                // is skipped without being loaded or scored. (The
                // victim's own host is exempt — minus-self it has at
                // least its current placement free.)
                if id == home.id {
                    targets.push((cand, id, Arc::clone(home.snapshot)));
                } else if cand.fits_summary(&self.hosts[id.0].summary) {
                    targets.push((cand, id, self.host_snapshot(id)));
                }
            }
        }
        targets.sort_by_key(|(_, id, record)| {
            let occ = if *id == home.id { &home.occ } else { record.occupancy() };
            occ.used_threads() > 0
        });
        let mut best = None;
        for (cand, id, record) in &targets {
            let (occ, neighbours) = if *id == home.id {
                (&home.occ, Neighbours::Listed(&home.others))
            } else {
                (record.occupancy(), Neighbours::Record(OnceCell::new()))
            };
            let target = Target { id: *id, record, occ, neighbours };
            let machine = self.hosts[id.0].machine();
            let classes = cand.catalog.placements.iter().enumerate().filter_map(|(i, ip)| {
                let idle = cand.predicted[ip.id - 1];
                let bound = move_key(*id, idle.max(0.0), 1.0, home.id);
                let realise = move || cand.catalog.availability.realisations(i, machine, occ);
                (idle >= cand.goal_perf).then_some((bound, idle, realise))
            });
            let key = |_: &AvailablePlacement, perf: f64, penalty: f64| {
                let escapes = perf >= cand.goal_perf && 1.0 - penalty < degradation_before;
                escapes.then(|| move_key(*id, perf, penalty, home.id))
            };
            self.score_walk(scope, &cand.request.workload, &target, classes, key, &mut best);
        }
        best.map(|(_, plan)| plan)
    }

    /// Commits `plan` for `resident` (an entry of `home.snapshot`) as
    /// rebalance pass `pass`, through `HostGuard::commit`: the
    /// placement exactly as scored, if and only if, under the host
    /// lock(s), the source still holds `home.snapshot` and the target
    /// the plan's record. Equal `Arc`s mean equal records, so the
    /// bookkeeping — free the old threads, reserve the new ones,
    /// re-home the registry entry (same ticket, stamped with `pass`)
    /// and, across hosts, the location map — cannot fail. `None` when
    /// either host published since the plan: nothing is changed or
    /// published.
    ///
    /// Cross-host moves lock through [`Self::lock_pair`], so concurrent
    /// passes (and commits, which take one lock at a time) cannot
    /// deadlock. Nothing in here simulates or prices — the guards hold
    /// the scope every simulating path borrows.
    fn commit_move(
        &self,
        scope: &mut LockScope,
        pass: u64,
        home: &Home<'_>,
        resident: &Resident,
        plan: Plan,
    ) -> Option<Placed> {
        let (src, dst) = (home.id, plan.host);
        if src == dst {
            let mut host = self.lock_host(scope, &self.hosts[src.0]);
            if !host.commit(&plan, &resident.threads) {
                return None;
            }
            let placed = plan.placed(resident.ticket, resident.goal_perf);
            host.rehome(&placed, pass);
            return Some(placed);
        }
        let (mut from, mut to) = self.lock_pair(scope, src, dst);
        if !from.unchanged_since(home.snapshot) || !to.commit(&plan, &[]) {
            return None;
        }
        let placed = plan.placed(resident.ticket, resident.goal_perf);
        let entry = from
            .remove_resident(resident.ticket)
            .expect("the scored record holds the resident");
        from.release(&entry.threads);
        to.insert_resident(entry);
        to.rehome(&placed, pass);
        // Update the location map while both host locks are held, so a
        // concurrent release never observes a map entry pointing at a
        // host that has already given the container up.
        self.locations
            .with(to.witness(), |map| map.insert(resident.ticket.0, dst.0));
        Some(placed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fast_test_config;
    use crate::EngineConfig;
    use std::cell::Cell;
    use vc_core::interference::InterferenceOracle;
    use vc_core::placement::PlacementSpec;
    use vc_topology::{machines, NodeId};

    fn estimate(moved_gb: f64, frozen_s: f64) -> MigrationEstimate {
        MigrationEstimate {
            duration_s: frozen_s,
            moved_gb,
            frozen_s,
            runtime_overhead_pct: 0.0,
            migrates_page_cache: true,
        }
    }

    fn migration(before: f64, after: f64, moved_gb: f64, frozen_s: f64) -> Migration {
        let ticket = PlacementTicket(1);
        Migration {
            ticket,
            workload: "WTbtree".into(),
            from: MachineId(0),
            to: MachineId(1),
            degradation_before: before,
            degradation_after: after,
            estimate: estimate(moved_gb, frozen_s),
            placed: Placed {
                ticket,
                machine: MachineId(1),
                placement_id: 1,
                spec: PlacementSpec::on_nodes(4, vec![NodeId(0)], 2),
                threads: Vec::new(),
                predicted_perf: 1.0,
                interference_penalty: 1.0 - after,
                goal_perf: 0.0,
                goal_met: true,
            },
        }
    }

    /// A pass that moved nothing reports `+0.0` GB and seconds — not the
    /// `-0.0` an empty `f64` sum yields, which prints as "-0.00" — and
    /// absorbing it counts the pass and nothing else.
    #[test]
    fn empty_passes_sum_to_positive_zero() {
        let empty = RebalanceReport::default();
        assert_eq!(empty.moved_gb().to_bits(), 0.0f64.to_bits());
        assert_eq!(empty.frozen_s().to_bits(), 0.0f64.to_bits());

        let mut totals = RebalanceTotals::default();
        totals.absorb(&empty);
        totals.absorb(&empty);
        assert_eq!(
            totals,
            RebalanceTotals {
                passes: 2,
                ..RebalanceTotals::default()
            }
        );
        assert_eq!(totals.moved_gb.to_bits(), 0.0f64.to_bits());
        assert_eq!(totals.mean_degradation_before(), 0.0);
        assert_eq!(totals.mean_degradation_after(), 0.0);
    }

    /// Totals add every counter of every absorbed pass, and their means
    /// are taken over migrations, not passes.
    #[test]
    fn totals_sum_counters_and_average_over_migrations() {
        let first = RebalanceReport {
            scanned: 5,
            over_budget: 2,
            migrations: vec![migration(0.25, 0.0, 36.0, 2.0), migration(0.5, 0.25, 0.5, 1.0)],
            blocked_no_target: 1,
            failed_commits: 1,
            pass: 1,
            ..RebalanceReport::default()
        };
        let second = RebalanceReport {
            scanned: 4,
            over_budget: 2,
            migrations: vec![migration(0.75, 0.5, 1.5, 0.5)],
            blocked_by_cost: 1,
            suppressed_by_cooldown: 2,
            blocked_by_gb_cap: 3,
            pass: 2,
            ..RebalanceReport::default()
        };
        assert_eq!(first.moved_gb(), 36.5);
        assert_eq!(first.frozen_s(), 3.0);

        let mut totals = RebalanceTotals::default();
        totals.absorb(&first);
        totals.absorb(&RebalanceReport::default());
        totals.absorb(&second);
        assert_eq!(
            totals,
            RebalanceTotals {
                passes: 3,
                scanned: 9,
                over_budget: 4,
                migrations: 3,
                blocked_by_cost: 1,
                blocked_no_target: 1,
                failed_commits: 1,
                suppressed_by_cooldown: 2,
                blocked_by_gb_cap: 3,
                moved_gb: 38.0,
                frozen_s: 3.5,
                degradation_before_sum: 1.5,
                degradation_after_sum: 0.75,
            }
        );
        assert_eq!(totals.mean_degradation_before(), 0.5);
        assert_eq!(totals.mean_degradation_after(), 0.25);
    }

    /// The cost/benefit gate's two sides: a move costs its freeze plus
    /// the throughput lost while copying, and is worth the degradation
    /// it removes times the credited runtime.
    #[test]
    fn cost_is_freeze_plus_copy_overhead_and_benefit_scales_with_runtime() {
        let policy = RebalancePolicy::default();
        assert_eq!(policy.cost_s(&estimate(36.0, 4.0)), 4.0, "frozen: no overhead");
        let throttled = MigrationEstimate {
            duration_s: 40.0,
            moved_gb: 36.0,
            frozen_s: 0.0,
            runtime_overhead_pct: 5.0,
            migrates_page_cache: true,
        };
        assert!((policy.cost_s(&throttled) - 2.0).abs() < 1e-12);

        assert_eq!(policy.expected_runtime_s, 600.0);
        assert_eq!(policy.benefit_s(0.5, 0.25), 150.0);
        assert!(policy.benefit_s(0.25, 0.5) < 0.0, "a worse home is a loss");
        let short = RebalancePolicy {
            expected_runtime_s: 4.0,
            ..RebalancePolicy::default()
        };
        assert_eq!(short.benefit_s(0.5, 0.25), 1.0);
        assert!(
            short.benefit_s(0.5, 0.25) < short.cost_s(&estimate(36.0, 4.0)),
            "a short-lived container is not worth a long freeze"
        );
    }

    /// `hosts` AMD hosts scoring interference, with a streamcluster and
    /// a WiredTiger stacked beside it on host 0. `fill` packs host 0's
    /// other seven nodes, so the streamcluster's only escape is another
    /// host. Returns the streamcluster's ticket.
    fn degraded(hosts: usize, fill: bool) -> (PlacementEngine, PlacementTicket) {
        let mut engine = PlacementEngine::new(EngineConfig {
            interference: true,
            degradation_budget: Some(0.005),
            ..fast_test_config()
        });
        for _ in 0..hosts {
            engine.add_machine(machines::amd_opteron_6272());
        }
        let place = |workload, vcpus, seed| {
            let req = PlacementRequest::new(workload, vcpus).with_probe_seed(seed);
            let placed = engine.place(&req).placed().expect("room").clone();
            assert_eq!(placed.machine, MachineId(0));
            placed
        };
        let mover = place("streamcluster", 4, 0).ticket;
        assert!(place("WTbtree", 4, 7).interference_penalty < 1.0);
        let fillers = if fill { 7 } else { 0 };
        for seed in 0..fillers {
            place("swaptions", 8, seed);
        }
        (engine, mover)
    }

    /// Publishes an unchanged copy of host `id`'s record: reserving and
    /// releasing a free node in one critical section leaves the same
    /// contents under a new `Arc`.
    fn republish(engine: &PlacementEngine, scope: &mut LockScope, id: MachineId) {
        let occ = engine.host_snapshot(id).occupancy().clone();
        let node = (0..occ.num_nodes())
            .map(NodeId)
            .find(|&n| occ.free_on_node(n) == occ.capacity_of_node(n))
            .expect("a free node");
        let threads = engine.machine(id).threads_on_node(node);
        let mut guard = engine.lock_host(scope, &engine.hosts[id.0]);
        guard.reserve(&threads).unwrap();
        guard.release(&threads);
    }

    /// Plans the move of `mover` off host 0, runs `between` on the same
    /// scope with the plan's target, then commits. Returns the target,
    /// whether the move committed and the host locks the commit took. A
    /// refused commit must leave every record the same `Arc` and
    /// publish nothing.
    fn plan_then_commit(
        engine: &PlacementEngine,
        mover: PlacementTicket,
        between: impl FnOnce(&mut LockScope, MachineId),
    ) -> (MachineId, bool, u64) {
        let src = MachineId(0);
        let mut scope = LockScope::new();
        let snapshot = engine.host_snapshot(src);
        let resident = snapshot.resident(mover).expect("the mover lives on host 0");
        let home = Home::new(src, &snapshot, resident);
        let plan = engine
            .plan_move(&scope, &home, &resident.request, 1.0)
            .expect("an escape exists");
        let to = plan.host;
        between(&mut scope, to);
        let records: Vec<_> = engine
            .machine_ids()
            .into_iter()
            .map(|id| engine.host_snapshot(id))
            .collect();
        let published = engine.stats().snapshot.published;
        let granted = scope.granted();
        let committed = engine
            .commit_move(&mut scope, 1, &home, resident, plan)
            .is_some();
        if !committed {
            for (id, record) in engine.machine_ids().into_iter().zip(&records) {
                let same = Arc::ptr_eq(&engine.host_snapshot(id), record);
                assert!(same, "{id:?} changed");
            }
            let now = engine.stats().snapshot.published;
            assert_eq!(now, published, "a refusal published");
        }
        (to, committed, scope.granted() - granted)
    }

    /// A cross-host plan whose target published after planning is
    /// refused — even though the new record's contents equal the
    /// scored one's — and the mover stays home.
    #[test]
    fn a_cross_host_plan_is_refused_once_its_target_publishes() {
        let (engine, mover) = degraded(2, true);
        let republished = |scope: &mut LockScope, to| republish(&engine, scope, to);
        let (to, committed, grants) = plan_then_commit(&engine, mover, republished);
        assert_eq!(to, MachineId(1), "host 0 is full: the escape is cross-host");
        assert!(!committed, "a target that published must refuse the move");
        assert_eq!(grants, 2);
        engine.audit().unwrap();
        assert!(engine.host_snapshot(MachineId(0)).resident(mover).is_some());
    }

    /// A same-host plan whose source published after planning is
    /// refused the same way.
    #[test]
    fn a_same_host_plan_is_refused_once_its_source_publishes() {
        let (engine, mover) = degraded(1, false);
        let republished = |scope: &mut LockScope, to| republish(&engine, scope, to);
        let (to, committed, grants) = plan_then_commit(&engine, mover, republished);
        assert_eq!(to, MachineId(0), "one host: the escape is same-host");
        assert!(!committed, "a source that published must refuse the move");
        assert_eq!(grants, 1);
        engine.audit().unwrap();
    }

    /// Against unchanged records a plan commits, taking one host lock
    /// per host it touches, and lands where it was scored.
    #[test]
    fn an_unchanged_plan_commits_with_one_lock_per_host() {
        for (hosts, fill, expected_to, expected_grants) in
            [(1, false, MachineId(0), 1), (2, true, MachineId(1), 2)]
        {
            let (engine, mover) = degraded(hosts, fill);
            let (to, committed, grants) = plan_then_commit(&engine, mover, |_, _| {});
            assert_eq!(to, expected_to);
            assert!(committed, "nothing changed since the plan");
            assert_eq!(grants, expected_grants);
            engine.audit().unwrap();
            let home = engine.host_snapshot(to);
            let moved = home.resident(mover).expect("re-homed");
            assert_eq!(moved.moved_in_pass, Some(1));
        }
    }

    /// The move planner without pruning or memo, kept as the reference:
    /// every admissible host, every hostable realisation of every
    /// goal-clearing class, each penalty asked straight from the host's
    /// oracle (clamped; an idle host costs nothing). Per host the
    /// highest penalty wins, then the highest adjusted prediction, the
    /// first found on ties; across hosts the lowest [`MoveKey`].
    fn exhaustive_plan(
        engine: &PlacementEngine,
        scope: &LockScope,
        home: &Home<'_>,
        request: &PlacementRequest,
        degradation_before: f64,
    ) -> Option<Plan> {
        let mut best: Option<Plan> = None;
        for class in 0..engine.fleet_index().num_classes() {
            let Ok(cand) = engine.evaluate(scope, class, request) else {
                continue;
            };
            for &id in engine.fleet_index().classes()[class].members() {
                let host = &engine.hosts[id.0];
                let (record, occ, residents) = if id == home.id {
                    (Arc::clone(home.snapshot), home.occ.clone(), home.others.clone())
                } else if cand.fits_summary(&host.summary) {
                    let record = engine.host_snapshot(id);
                    let (occ, residents) = (record.occupancy().clone(), record.resident_workloads());
                    (record, occ, residents)
                } else {
                    continue;
                };
                let mut on_host: Option<Plan> = None;
                for (i, ip) in cand.catalog.placements.iter().enumerate() {
                    let idle_p = cand.predicted[ip.id - 1];
                    if idle_p < cand.goal_perf {
                        continue;
                    }
                    for ap in cand.catalog.availability.realisations(i, host.machine(), &occ) {
                        let penalty = host.sim(scope).co_location_penalty(
                            &request.workload,
                            &ap.threads,
                            &occ,
                            &residents,
                        );
                        let perf = idle_p * penalty;
                        if perf < cand.goal_perf {
                            continue;
                        }
                        let better = on_host.as_ref().is_none_or(|b| {
                            penalty > b.penalty || (penalty == b.penalty && perf > b.perf)
                        });
                        if better {
                            let record = Arc::clone(&record);
                            on_host = Some(Plan { host: id, record, placement: ap, perf, penalty });
                        }
                    }
                }
                let Some(plan) = on_host else {
                    continue;
                };
                if 1.0 - plan.penalty >= degradation_before {
                    continue;
                }
                let key = |p: &Plan| move_key(p.host, p.perf, p.penalty, home.id);
                if best.as_ref().is_none_or(|b| key(&plan) < key(b)) {
                    best = Some(plan);
                }
            }
        }
        best
    }

    /// Every count of a report, and each migration's ticket, hosts,
    /// degradations (as bits) and threads.
    fn report_counts(r: &RebalanceReport) -> impl PartialEq + std::fmt::Debug {
        let moves: Vec<_> = r
            .migrations
            .iter()
            .map(|m| {
                let degradations = (m.degradation_before.to_bits(), m.degradation_after.to_bits());
                (m.ticket, m.from, m.to, degradations, m.placed.threads.clone())
            })
            .collect();
        let gates = (r.blocked_no_target, r.blocked_by_cost, r.blocked_by_gb_cap);
        let skips = (r.failed_commits, r.suppressed_by_cooldown, r.host_lock_acquisitions);
        (r.scanned, r.over_budget, gates, skips, moves)
    }

    /// Dense fleets built by a fixed script — packed hosts with holes,
    /// then idle ones — rebalanced twice over by twin engines: one
    /// plans with the pruned [`PlacementEngine::plan_move`], the other
    /// with [`exhaustive_plan`], and asks the pruned planner too at
    /// every step. The plans agree on host, threads and the bits of
    /// prediction and penalty, and the passes on every count.
    #[test]
    fn pruned_move_plans_equal_the_exhaustive_scan() {
        let policy = RebalancePolicy::default();
        for (hosts, arrivals) in [(1, 20), (2, 40), (4, 30)] {
            let build = || {
                let mut engine = PlacementEngine::new(EngineConfig {
                    interference: true,
                    degradation_budget: Some(0.005),
                    ..fast_test_config()
                });
                for _ in 0..hosts {
                    engine.add_machine(machines::amd_opteron_6272());
                }
                let placed: Vec<Placed> = (0..arrivals)
                    .filter_map(|i| {
                        let workload = ["streamcluster", "WTbtree", "swaptions", "canneal"][i % 4];
                        let req = PlacementRequest::new(workload, [2, 4, 8][i % 3])
                            .with_probe_seed(i as u64);
                        engine.place(&req).placed().cloned()
                    })
                    .collect();
                for gone in placed.iter().step_by(5) {
                    engine.release(gone).unwrap();
                }
                engine
            };
            let (pruned, exhaustive) = (build(), build());
            let (planned, mut moved) = (Cell::new(0), 0);
            for pass in 0..2 {
                let planner = |engine: &PlacementEngine,
                               scope: &LockScope,
                               home: &Home<'_>,
                               req: &PlacementRequest,
                               before| {
                    let want = exhaustive_plan(engine, scope, home, req, before);
                    let got = engine.plan_move(scope, home, req, before);
                    let summary = |p: &Plan| {
                        let bits = (p.perf.to_bits(), p.penalty.to_bits());
                        (p.host, p.placement.threads.clone(), bits)
                    };
                    let ctx = format!("{hosts} hosts, pass {pass}, {:?}", home.id);
                    assert_eq!(got.as_ref().map(summary), want.as_ref().map(summary), "{ctx}");
                    planned.set(planned.get() + 1);
                    want
                };
                let want = exhaustive.rebalance_planned_by(&mut LockScope::new(), &policy, planner);
                let got = pruned.rebalance(&policy);
                assert_eq!(report_counts(&got), report_counts(&want), "{hosts} hosts, pass {pass}");
                moved += got.migrations.len();
                pruned.audit().unwrap();
            }
            let planned = planned.get();
            assert!(planned > 4 && moved > 0, "{hosts} hosts: {planned} plans, {moved} moves");
        }
    }
}
