//! The metric tables — the names every later performance or simplicity
//! claim about this repo is made in — and the result line the driver
//! reads. `BENCHMARK.json` at the repo root lists the same names;
//! `smoke` fails when the two drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::checks::Checks;
use crate::gen::Digest;
use crate::stats::{median_of, Segment};

/// The four workloads, suite order.
pub const WORKLOADS: [&str; 4] = [
    "served_steady",
    "batch_packed",
    "colocated_churn",
    "cold_start",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: name, unit, direction and — for end-to-end metrics — the
/// share of the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one
/// (untraced run), and none is ever 0. Bounds come from `repeat` runs
/// over ten seeds (README, Repeatability): timings spread 4–9 % on a
/// quiet machine, so the contract's largest bound is the smallest that
/// keeps a third of it above what was seen; the rest spread ≤ 1–4 %.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("place_per_s", "1/s", Higher, 0.25),
    e2e("place_p50_us", "us", Lower, 0.25),
    e2e("place_tail_us", "us", Lower, 0.25),
    e2e("release_p50_us", "us", Lower, 0.25),
    e2e("can_fit_p50_us", "us", Lower, 0.25),
    e2e("goal_met_share", "ratio", Higher, 0.05),
    e2e("model_cv_err_pct", "%", Lower, 0.05),
    e2e("hosts_used", "hosts", Lower, 0.15),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Single layers, prefix = crate. Times are per-call medians of a
/// public call timed from outside; `1/req` counters are
/// `engine.stats()` deltas over the traced timed phase per placement
/// request. A layer that does no work on a workload reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.perf_us", "us", Lower),
    layer("sim.perf_us_v4", "us", Lower),
    layer("sim.perf_us_v16", "us", Lower),
    layer("sim.perf_us_v32", "us", Lower),
    layer("sim.perf_share", "ratio", Lower),
    layer("sim.colocation_us", "us", Lower),
    layer("core.interference_computes", "count", Lower),
    layer("core.interference_hit_share", "ratio", Higher),
    layer("core.requirements_ns", "ns", Lower),
    layer("core.available_us", "us", Lower),
    layer("core.predict_ns", "ns", Lower),
    layer("core.catalog_build_ms", "ms", Lower),
    layer("core.training_build_ms", "ms", Lower),
    layer("core.select_probe_ms", "ms", Lower),
    layer("core.model_fit_ms", "ms", Lower),
    layer("ml.forest_fit_ms", "ms", Lower),
    layer("ml.forest_predict_ns", "ns", Lower),
    layer("engine.place_us", "us", Lower),
    layer("engine.can_fit_us", "us", Lower),
    layer("engine.commit_us", "us", Lower),
    layer("engine.release_us", "us", Lower),
    layer("engine.eval_overhead_us", "us", Lower),
    layer("engine.descent_us", "us", Lower),
    layer("engine.catalog_hit_ns", "ns", Lower),
    layer("engine.model_hit_ns", "ns", Lower),
    layer("engine.snapshot_load_ns", "ns", Lower),
    layer("engine.rebalance_pass_ms", "ms", Lower),
    layer("engine.rebalance_settled_us", "us", Lower),
    layer("engine.rebalance_scanned", "count", Lower),
    layer("engine.rebalance_migrations", "count", Lower),
    layer("engine.degradation_after_pct", "%", Lower),
    layer("engine.snapshot_published", "1/req", Lower),
    layer("engine.snapshot_reads", "1/req", Lower),
    layer("engine.stale_retries", "1/req", Lower),
    layer("engine.host_lock_acquisitions", "1/req", Lower),
    layer("engine.sketch_skips", "1/req", Higher),
    layer("engine.sketch_admits", "1/req", Lower),
    layer("engine.sketch_stale", "1/req", Lower),
    layer("engine.summary_skips", "1/req", Lower),
    layer("engine.summary_admits", "1/req", Lower),
    layer("engine.offers", "1/req", Lower),
    layer("engine.batch_firstfit_per_s", "1/s", Higher),
    layer("engine.batch_bestscore_per_s", "1/s", Higher),
    layer("engine.cache_computes", "count", Lower),
    layer("engine.cache_evictions", "count", Lower),
    layer("migration.estimate_ns", "ns", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.rpc_encode_req_ns", "ns", Lower),
    layer("serve.rpc_decode_req_ns", "ns", Lower),
    layer("serve.rpc_encode_resp_ns", "ns", Lower),
    layer("serve.rpc_decode_resp_ns", "ns", Lower),
    layer("serve.wire_frame_ns", "ns", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.connect_ping_us", "us", Lower),
    layer("serve.open1000_place_p50_us", "us", Lower),
    layer("serve.open1000_place_p99_us", "us", Lower),
    layer("serve.open1000_max_late_ms", "ms", Lower),
    layer("topology.reserve_release_ns", "ns", Lower),
    layer("topology.summary_publish_ns", "ns", Lower),
    layer("topology.sketch_update_ns", "ns", Lower),
    layer("topology.sketch_admits_ns", "ns", Lower),
    layer("sync.slot_store_ns", "ns", Lower),
    layer("sync.slot_load_ns", "ns", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.harness_share", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// Values of one run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`; panics on a name neither table lists (a typo in
    /// a workload is a bug in this program).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is in neither table"
        );
        self.0.insert(name, value);
    }

    /// The five gated timings, each the median over `segments`.
    pub fn set_timings(&mut self, segments: &[Segment]) {
        self.set("place_per_s", median_of(segments, |s| s.per_s));
        self.set("place_p50_us", median_of(segments, |s| s.place_p50_us));
        self.set("place_tail_us", median_of(segments, |s| s.place_tail_us));
        self.set("release_p50_us", median_of(segments, |s| s.release_p50_us));
        self.set("can_fit_p50_us", median_of(segments, |s| s.can_fit_p50_us));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub checks: Checks,
    /// What was asked (first requests of each lane).
    pub script: Digest,
    /// What the engine answered to them.
    pub decisions: Digest,
    /// Human-readable sample counts and notes, printed before the
    /// result line.
    pub notes: Vec<String>,
}

/// The driver's result line. An untraced run must have set every
/// end-to-end metric to a finite non-zero value; a traced run reports
/// every per-layer metric, 0 for layers that did no work.
pub fn result_line(outcome: &mut Outcome, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut body = String::new();
    for (i, def) in table.iter().enumerate() {
        let value = outcome.metrics.get(def.name);
        let value = match (value, traced) {
            (Some(v), _) if v.is_finite() && (traced || v != 0.0) => v,
            (None, true) => 0.0,
            (v, _) => {
                outcome
                    .checks
                    .fail(format!("metric {} has no usable value ({v:?})", def.name));
                0.0
            }
        };
        if i > 0 {
            body.push_str(", ");
        }
        // `{}` on f64 prints every digit needed to round-trip.
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.checks.passed(),
        outcome.attempted.max(1),
        outcome.failed,
    )
}
