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
//! happens under a host lock; only the final bookkeeping (reserve new
//! threads, move the registry entry, free old threads) locks, and a
//! raced reservation simply counts as a failed move.

use vc_migration::{MigrationEstimate, MigrationMode, MigrationModel};
use vc_sync::lock::LockScope;

use crate::engine::{MachineId, Placed, PlacementEngine, PlacementTicket, Resident};

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
    pub cooldown_passes: u64,
    /// Upper bound on data moved per pass (GB). Once executing the next
    /// candidate move would push the pass total over the cap, that move
    /// (and every later one this pass) is skipped and counted in
    /// [`RebalanceReport::blocked_by_gb_cap`] — bounding the migration
    /// bandwidth a background loop can consume per interval. `None`
    /// (the default) leaves the pass uncapped.
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
    /// Moves abandoned at commit time: a concurrent commit claimed the
    /// chosen threads, the resident departed between snapshot and
    /// reservation, or the target's fresh score no longer cleared the
    /// improvement/cost gates. The resident stays where it was; the
    /// next pass retries.
    pub failed_commits: usize,
    /// Host mutex acquisitions this pass performed — its own
    /// [`LockScope::granted`], so concurrent clients' commits and
    /// releases are never charged to it. Planning is wait-free, so this
    /// is exactly the executed-move bookkeeping: one lock per same-host
    /// move, two per cross-host move (plus the locks of any
    /// `failed_commits` re-validations) — asserted in tests.
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

    /// Mean predicted degradation of the moved containers before their
    /// moves (0.0 when nothing moved).
    pub fn mean_degradation_before(&self) -> f64 {
        mean(self.migrations.iter().map(|m| m.degradation_before))
    }

    /// Mean predicted degradation of the moved containers after their
    /// moves (0.0 when nothing moved).
    pub fn mean_degradation_after(&self) -> f64 {
        mean(self.migrations.iter().map(|m| m.degradation_after))
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
    /// Moves abandoned at commit time (lost races).
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

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A planned (not yet executed) move for one over-budget resident.
struct PlannedMove {
    to: MachineId,
    degradation_after: f64,
    adjusted_perf: f64,
}

impl PlannedMove {
    /// Whether `self` beats `other`: lower predicted degradation, then
    /// higher adjusted prediction, then staying on the current machine
    /// (an intra-machine node-set move is the §7 setting the Table 2
    /// costs were measured in; a cross-host move is at best as cheap),
    /// then the lower machine id — a total, deterministic order.
    fn beats(&self, other: &PlannedMove, src: MachineId) -> bool {
        let key = |m: &PlannedMove| {
            (
                m.degradation_after,
                -m.adjusted_perf,
                (m.to != src) as u8,
                m.to.0,
            )
        };
        key(self) < key(other)
    }
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
    ///    highest adjusted prediction, then lowest machine id), scored
    ///    against per-host snapshots exactly like admission.
    /// 3. **Price** the move with [`RebalancePolicy::model`] in
    ///    [`RebalancePolicy::mode`] and execute it only when
    ///    `benefit_s > cost_s` ([`RebalancePolicy`] documents both
    ///    sides). Everything expensive — co-location simulation,
    ///    pricing — happens on snapshots with no host lock held; the
    ///    executed move only locks for the reserve/registry/release
    ///    bookkeeping, and a lost race is counted, not forced.
    ///
    /// The moved container keeps its [`PlacementTicket`], so handles
    /// returned at admission still release it.
    pub fn rebalance(&self, policy: &RebalancePolicy) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        let mut scope = LockScope::new();
        let pass = self.begin_rebalance_pass();
        let Some(budget) = self.config().degradation_budget else {
            return report;
        };
        report.pass = pass;
        // Retire cooldown entries that can no longer suppress anything,
        // so the map stays bounded by the recently-moved set even under
        // endless churn (tickets are never reused, so stale entries
        // would otherwise accumulate forever).
        self.move_cooldowns.with(&mut scope, |cooldowns| {
            if policy.cooldown_passes == 0 {
                cooldowns.clear();
            } else {
                cooldowns.retain(|_, moved_at| {
                    pass.saturating_sub(*moved_at) <= policy.cooldown_passes
                });
            }
        });
        let mut pass_moved_gb = 0.0_f64;
        for src in self.machine_ids() {
            let snapshot = self.residents(src);
            for resident in &snapshot {
                report.scanned += 1;
                // Hysteresis: a just-moved ticket is not even re-scored
                // until its cooldown expires — re-moving it would pay a
                // second freeze to chase a landscape that is still
                // settling around the first move.
                if policy.cooldown_passes > 0 {
                    let cooling = self.move_cooldowns.with(&mut scope, |cooldowns| {
                        cooldowns.get(&resident.ticket.0).is_some_and(|&moved_at| {
                            pass.saturating_sub(moved_at) <= policy.cooldown_passes
                        })
                    });
                    if cooling {
                        report.suppressed_by_cooldown += 1;
                        continue;
                    }
                }
                // Fresh per-resident snapshot: earlier moves in this
                // same pass changed the landscape.
                let Some((occ_minus, others)) = self.host_view_without(src, resident.ticket)
                else {
                    continue; // departed since the outer snapshot
                };
                let degradation =
                    1.0 - self.resident_penalty(&scope, src, resident, &occ_minus, &others);
                if degradation <= budget {
                    continue;
                }
                report.over_budget += 1;
                let Some(plan) =
                    self.plan_move(&scope, src, resident, degradation, &occ_minus, &others)
                else {
                    report.blocked_no_target += 1;
                    continue;
                };
                // Price the move — Table 2, on the real descriptor (so
                // generated or renamed workloads keep their calibrated
                // THP fraction).
                let workload = self
                    .workload_descriptor(&scope, src, &resident.request.workload)
                    .expect("resident workloads resolve against their host's oracle");
                let estimate = policy.model.estimate(&workload, policy.mode);
                if policy.benefit_s(degradation, plan.degradation_after) <= policy.cost_s(&estimate)
                {
                    report.blocked_by_cost += 1;
                    continue;
                }
                // Per-pass bandwidth cap: a cost-justified move still
                // waits for a later pass when this one has already
                // shifted its GB allowance.
                if let Some(cap) = policy.max_moved_gb_per_pass {
                    if pass_moved_gb + estimate.moved_gb > cap {
                        report.blocked_by_gb_cap += 1;
                        continue;
                    }
                }
                let executed =
                    self.execute_move(&mut scope, src, resident, &plan, degradation, policy, &estimate);
                match executed {
                    Ok((placed, degradation_after)) => {
                        pass_moved_gb += estimate.moved_gb;
                        if policy.cooldown_passes > 0 {
                            self.move_cooldowns
                                .with(&mut scope, |cooldowns| cooldowns.insert(resident.ticket.0, pass));
                        }
                        report.migrations.push(Migration {
                            ticket: resident.ticket,
                            workload: resident.request.workload.clone(),
                            from: src,
                            to: plan.to,
                            degradation_before: degradation,
                            degradation_after,
                            estimate,
                            placed,
                        })
                    }
                    Err(()) => report.failed_commits += 1,
                }
            }
        }
        report.host_lock_acquisitions = scope.granted();
        report
    }

    /// The best alternative placement for an over-budget resident:
    /// every machine class is re-evaluated from the original admission
    /// request (warm-cache work), every summary-admissible host scored
    /// against its snapshot — the resident's own host scored *minus
    /// itself* (over `occ_minus`/`others`, the caller's already-taken
    /// minus-self view), so staying on freed-up local nodes competes
    /// fairly with moving away. Returns `None` when no candidate
    /// strictly improves on `degradation_before`.
    fn plan_move(
        &self,
        scope: &LockScope,
        src: MachineId,
        resident: &Resident,
        degradation_before: f64,
        occ_minus: &vc_topology::OccupancyMap,
        others: &[vc_core::interference::ResidentWorkload],
    ) -> Option<PlannedMove> {
        let mut best: Option<PlannedMove> = None;
        for class in 0..self.fleet_index().num_classes() {
            let Ok(cand) = self.evaluate(scope, class, &resident.request) else {
                continue;
            };
            for &id in self.fleet_index().classes()[class].members() {
                // Lock-free prefilter, exactly like admission: a host
                // whose summary leaves no goal-clearing shape possible
                // is skipped without being locked, cloned or scored.
                // (The victim's own host is exempt — minus-self it has
                // at least its current placement free.)
                if id != src && !cand.fits_summary(&self.hosts[id.0].summary) {
                    continue;
                }
                // Every target is scored over the *full* availability
                // orbits — the victim's own host minus-self (the
                // fragmentation-first head is exactly the set beside
                // the noisy neighbour), other hosts on their published
                // views. Snapshot reads are wait-free, so the whole
                // fleet scan is zero-lock and the rebalancer sees the
                // least-interfering realisation everywhere instead of
                // admission's fragmentation-first head.
                let scored = if id == src {
                    self.best_escape_on_view(scope, id, &cand, occ_minus, others)
                } else {
                    let (occ, residents) = self.host_view(id);
                    self.best_escape_on_view(scope, id, &cand, &occ, &residents)
                };
                let Some((_, p, penalty)) = scored else { continue };
                let degradation_after = 1.0 - penalty;
                if degradation_after >= degradation_before {
                    continue;
                }
                let plan = PlannedMove {
                    to: id,
                    degradation_after,
                    adjusted_perf: p,
                };
                if best.as_ref().is_none_or(|b| plan.beats(b, src)) {
                    best = Some(plan);
                }
            }
        }
        best
    }

    /// Executes a planned move: re-score on a fresh snapshot of the
    /// target, **re-validate the improvement and the cost gate against
    /// that fresh score** (a concurrent admission may have landed a
    /// noisy neighbour on the target since the plan — the rebalancer
    /// must never pay a migration to make things worse), then — under
    /// the host lock(s), taken in machine-id order so concurrent
    /// passes cannot deadlock — reserve the new threads, re-home the
    /// registry entry (same ticket) and free the old threads. Returns
    /// the new placement plus the fresh predicted degradation it was
    /// committed at. The lock-held part is pure bookkeeping; nothing
    /// there simulates or prices.
    #[allow(clippy::too_many_arguments)]
    fn execute_move(
        &self,
        scope: &mut LockScope,
        src: MachineId,
        resident: &Resident,
        plan: &PlannedMove,
        degradation_before: f64,
        policy: &RebalancePolicy,
        estimate: &MigrationEstimate,
    ) -> Result<(Placed, f64), ()> {
        let dst = plan.to;
        // Fresh target snapshot → concrete threads (may simulate on a
        // cold penalty miss; still no lock held).
        let cand = self
            .evaluate(scope, self.machine_class(dst), &resident.request)
            .map_err(|_| ())?;
        let (ap, p, penalty) = if dst == src {
            let (occ, residents) = self.host_view_without(src, resident.ticket).ok_or(())?;
            self.best_escape_on_view(scope, dst, &cand, &occ, &residents)
                .ok_or(())?
        } else {
            // Full-orbit re-validation, matching the plan's scoring —
            // an admission-style head scan here could land the move on
            // a different (worse) realisation than the one planned.
            let (occ, residents) = self.host_view(dst);
            self.best_escape_on_view(scope, dst, &cand, &occ, &residents)
                .ok_or(())?
        };
        let degradation_after = 1.0 - penalty;
        if degradation_after >= degradation_before
            || policy.benefit_s(degradation_before, degradation_after) <= policy.cost_s(estimate)
        {
            return Err(()); // the target degraded since the plan
        }
        self.commit_move(scope, src, dst, resident, (ap, p, penalty))
            .map(|placed| (placed, degradation_after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_core::placement::PlacementSpec;
    use vc_topology::NodeId;

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
        assert_eq!(empty.mean_degradation_before(), 0.0);
        assert_eq!(empty.mean_degradation_after(), 0.0);

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
        assert_eq!(first.mean_degradation_before(), 0.375);
        assert_eq!(first.mean_degradation_after(), 0.125);

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
}
