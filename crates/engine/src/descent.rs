//! The lock-free admission descent: shard sketch → host summary →
//! candidate host, plus the capacity probe and the rejection
//! explanation built on the same two predicates.

use vc_sync::lock::LockScope;
use vc_topology::{AvailabilitySketch, CapacitySummary};

use crate::engine::{Candidate, FitProbe, MachineId, PlacementEngine, PlacementRequest};
use crate::host::Host;

impl Candidate {
    /// The prefilter predicate: whether a host's capacity summary
    /// leaves any goal-clearing placement class possible, at node *and*
    /// L2 granularity. `false` means the host need not be locked,
    /// cloned or scored; `true` is advisory and re-validated against
    /// the occupancy map.
    pub(crate) fn fits_summary(&self, summary: &CapacitySummary) -> bool {
        self.goal_shapes.iter().any(|r| {
            summary.can_host(r.num_nodes, r.per_node) && summary.can_host_l2(r.num_l2, r.per_l2)
        })
    }

    /// The shard-level predicate: `false` proves no member of the
    /// sketch's shard can pass [`Self::fits_summary`].
    fn fits_sketch(&self, sketch: &AvailabilitySketch) -> bool {
        self.goal_shapes
            .iter()
            .any(|r| sketch.admits(r.node_bucket(), r.l2_bucket()))
    }
}

impl PlacementEngine {
    /// Explains a summary-rejected host the way lock-validated failures
    /// explain theirs: by naming its most exhausted node, read from the
    /// host's published snapshot (rejection is the cold path).
    fn summary_exhaustion(&self, host: &Host) -> String {
        let view = self.view(host);
        let occ = view.occupancy();
        let node = occ.most_exhausted_node();
        format!(
            "{}: no goal-clearing placement class fits the free capacity \
             (node {} exhausted: {}/{} threads free, per its summary)",
            host.machine().name(),
            node,
            occ.free_on_node(node),
            occ.capacity_of_node(node),
        )
    }

    /// [`Candidate::fits_summary`] as admission runs it: counted in
    /// [`SummaryCounters`](crate::SummaryCounters).
    fn summary_admits(&self, host: &Host, cand: &Candidate) -> bool {
        let admitted = cand.fits_summary(&host.summary);
        if admitted {
            self.counters.summary_admits.incr();
        } else {
            self.counters.summary_skips.incr();
        }
        admitted
    }

    /// A can-we-fit probe: evaluates the request against every machine
    /// class (warm-cache work, identical to admission's phase 1) and
    /// counts the hosts whose lock-free capacity summary still admits a
    /// goal-clearing shape — without taking any host lock or reserving
    /// anything. The answer is advisory: capacity can be claimed by a
    /// concurrent commit the instant this returns.
    ///
    /// The count descends shard sketches first: shards whose sketch
    /// proves every member summary would reject are charged to
    /// [`FitProbe::sketch_skipped`] in O(1) instead of being scanned.
    /// The sketch is conservative, so `hosts` is *exactly* the
    /// full-scan count (at rest; regression-tested against a reference
    /// scan).
    pub fn can_fit(&self, req: &PlacementRequest) -> FitProbe {
        let scope = LockScope::new();
        let mut probe = FitProbe::default();
        for class in 0..self.fleet.num_classes() {
            let Ok(cand) = self.evaluate(&scope, class, req) else {
                continue;
            };
            if !cand.goal_met() || cand.goal_shapes.is_empty() {
                continue;
            }
            probe.goal_clearing_classes += 1;
            if cand.best_perf > probe.best_predicted {
                probe.best_predicted = cand.best_perf;
                probe.goal_perf = cand.goal_perf;
            }
            let members = self.fleet.classes()[class].members();
            for (chunk, sketch) in members
                .chunks(self.sketch_shard_size())
                .zip(&self.class_sketches[class])
            {
                if cand.fits_sketch(sketch) {
                    probe.hosts += chunk
                        .iter()
                        .filter(|id| cand.fits_summary(&self.hosts[id.0].summary))
                        .count();
                } else {
                    probe.sketch_skipped += chunk.len();
                }
            }
        }
        probe
    }

    /// Walks untried member hosts of goal-clearing classes in fleet
    /// order, passing each summary-admitted host to `visit` until it
    /// returns `true`; hosts the prefilter rules out are recorded in
    /// `skipped` (and never locked).
    ///
    /// This is the sketch → shard → host descent: per viable class,
    /// members are streamed shard by shard (slot order — which is fleet
    /// order within a class, since slots are assigned at registration),
    /// whole shards whose sketch proves no member can pass the summary
    /// are jumped in O(1) (counted into `sketch_skipped` and
    /// [`SketchCounters::skips`](crate::SketchCounters::skips); their
    /// summaries are never read), and the surviving streams are merged
    /// by machine id — so hosts are visited in *exactly* fleet order,
    /// and every host the descent skips is one whose summary would have
    /// rejected (the sketch is conservative). Decisions are therefore
    /// those of a flat fleet-order summary scan (checked against the
    /// reference scan in `tests/support`); only the cost differs.
    pub(crate) fn walk_admitted<'a>(
        &'a self,
        viable: &[Option<&'a Candidate>],
        tried: &[bool],
        skipped: &mut Vec<usize>,
        sketch_skipped: &mut usize,
        mut visit: impl FnMut(MachineId, &'a Candidate) -> bool,
    ) {
        let shard_size = self.sketch_shard_size();
        /// One class's member stream through its shard sketches.
        struct Stream<'b> {
            cand: &'b Candidate,
            members: &'b [MachineId],
            sketches: &'b [AvailabilitySketch],
            /// Next member index (slot) to consider.
            pos: usize,
            /// Whether some member of the current shard passed its
            /// summary (for the stale-shard counter).
            saw_admit: bool,
        }
        let mut streams: Vec<Stream<'_>> = Vec::new();
        for (class, cand) in viable.iter().enumerate() {
            let Some(cand) = cand else { continue };
            let members = self.fleet.classes()[class].members();
            if members.is_empty() {
                continue;
            }
            streams.push(Stream {
                cand,
                members,
                sketches: &self.class_sketches[class],
                pos: 0,
                saw_admit: false,
            });
        }
        // Lands a stream on its next member inside a sketch-admitted
        // shard, jumping proven-empty shards whole (each jump is two
        // table loads per goal shape, however many hosts it skips).
        let settle = |s: &mut Stream<'_>, sketch_skipped: &mut usize| {
            while s.pos < s.members.len() {
                let shard = s.pos / shard_size;
                if s.cand.fits_sketch(&s.sketches[shard]) {
                    self.counters.sketch_admits.incr();
                    return;
                }
                let end = ((shard + 1) * shard_size).min(s.members.len());
                let jumped = end - s.pos;
                *sketch_skipped += jumped;
                self.counters.sketch_skips.add(jumped as u64);
                s.pos = end;
            }
        };
        for s in &mut streams {
            settle(s, sketch_skipped);
        }
        loop {
            // Merge the streams by head machine id: global fleet order.
            let Some(si) = streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.pos < s.members.len())
                .min_by_key(|(_, s)| s.members[s.pos])
                .map(|(i, _)| i)
            else {
                return;
            };
            let s = &mut streams[si];
            let id = s.members[s.pos];
            let mut stop = false;
            if tried[id.0] {
                // Its summary admitted it on an earlier walk of this
                // request: the shard's sketch was right to admit.
                s.saw_admit = true;
            } else if self.summary_admits(&self.hosts[id.0], s.cand) {
                s.saw_admit = true;
                stop = visit(id, s.cand);
            } else {
                skipped.push(id.0);
            }
            s.pos += 1;
            if s.pos >= s.members.len() || s.pos.is_multiple_of(shard_size) {
                // Left a fully-walked admitted shard. If nothing in it
                // passed a summary, the sketch's per-axis marginals
                // were satisfied by different hosts (or raced a
                // publication): stale optimism, one shard of wasted
                // summary reads.
                if !s.saw_admit {
                    self.counters.sketch_stale.incr();
                }
                s.saw_admit = false;
                settle(s, sketch_skipped);
            }
            if stop {
                return;
            }
        }
    }

    /// Why a request could not be placed: an actionable summary rather
    /// than an arbitrary per-machine error. Capacity rejections carry
    /// the per-host commit failures (which name the exhausted node) and
    /// the number of hosts the capacity summaries ruled out without
    /// locking.
    pub(crate) fn rejection_reason(
        &self,
        options: &[Result<Candidate, String>],
        commit_errors: &[String],
        skipped: &[usize],
        sketch_skipped: usize,
    ) -> String {
        let ok: Vec<&Candidate> = options.iter().filter_map(|c| c.as_ref().ok()).collect();
        if ok.is_empty() {
            return options
                .iter()
                .filter_map(|c| c.as_ref().err())
                .next()
                .cloned()
                .unwrap_or_else(|| "no machines in the fleet".to_string());
        }
        let goal_ok: Vec<&Candidate> = ok.iter().copied().filter(|c| c.goal_met()).collect();
        if goal_ok.is_empty() {
            return format!(
                "no machine class is predicted to meet the goal ({} evaluated)",
                ok.len()
            );
        }
        let members_of = |c: &Candidate| self.fleet.classes()[c.class].members();
        let hosts: usize = goal_ok.iter().map(|c| members_of(c).len()).sum();
        let mut details: Vec<String> = commit_errors.to_vec();
        // Hosts ruled out by the lock-free prefilter were never locked,
        // so explain them from their snapshots. Cap the detail at a
        // few hosts — a full fleet would otherwise produce a novel.
        const DETAILED: usize = 3;
        details.extend(
            skipped
                .iter()
                .take(DETAILED)
                .map(|&i| self.summary_exhaustion(&self.hosts[i])),
        );
        if skipped.len() > DETAILED {
            details.push(format!(
                "and {} more hosts ruled out by capacity summaries",
                skipped.len() - DETAILED
            ));
        }
        if sketch_skipped > 0 {
            // Sketch-jumped shards never had a member summary read on
            // the placement path. Rejection is the cold path, so read a
            // few of them now (uncounted — this is a diagnostic, not a
            // prefilter decision): the reason keeps naming an exhausted
            // node even when the whole fleet was ruled out shard-wide.
            if details.is_empty() {
                details.extend(
                    goal_ok
                        .iter()
                        .flat_map(|&c| members_of(c).iter().map(move |id| (c, &self.hosts[id.0])))
                        .filter(|(c, host)| !c.fits_summary(&host.summary))
                        .take(DETAILED)
                        .map(|(_, host)| self.summary_exhaustion(host)),
                );
            }
            details.push(format!(
                "{}{sketch_skipped} hosts ruled out shard-wide by availability \
                 sketches (summaries never read during placement)",
                if details.is_empty() { "" } else { "and " },
            ));
        }
        format!(
            "no free capacity on the {hosts} hosts across {} machine classes \
             that meet the goal: {}",
            goal_ok.len(),
            details.join("; ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{fast_test_config, EngineConfig};
    use vc_topology::machines;

    /// A shard whose only summary-admitting member the request already
    /// tried is not stale: on the retry walk host A is skipped as
    /// tried and full host B's summary rejects, yet A *did* admit on
    /// the first walk — the sketch was right.
    #[test]
    fn tried_members_do_not_make_their_shard_stale() {
        let mut engine = PlacementEngine::new(EngineConfig {
            sketch_shard: 2,
            ..fast_test_config()
        });
        engine.add_machine(machines::amd_opteron_6272());
        let b = engine.add_machine(machines::amd_opteron_6272());
        let all: Vec<_> = engine.machine(b).threads().iter().map(|t| t.id).collect();
        engine
            .lock_host(&mut LockScope::new(), &engine.hosts[b.0])
            .reserve(&all)
            .unwrap();

        let cand = engine
            .evaluate(&LockScope::new(), 0, &PlacementRequest::new("swaptions", 16))
            .unwrap();
        let viable = [Some(&cand)];
        let before = engine.stats();
        let (mut skipped, mut sketch_skipped) = (Vec::new(), 0);
        engine.walk_admitted(&viable, &[true, false], &mut skipped, &mut sketch_skipped, |_, _| {
            panic!("A is tried and B is full: nothing to visit")
        });
        let after = engine.stats();
        assert_eq!(skipped, [b.0], "B's summary must have been read and rejected");
        assert_eq!(sketch_skipped, 0, "idle A keeps the shard sketch-admitted");
        assert_eq!(after.sketch.admits, before.sketch.admits + 1);
        assert_eq!(after.sketch.stale, before.sketch.stale);
    }
}
