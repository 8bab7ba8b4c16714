//! The span recorder of the traced run. It lives here, in the
//! benchmark's own files: spans are recorded *around* the calls into
//! each layer, from outside. Each client thread owns one [`Recorder`]
//! (a plain `Vec` push per span, no sharing); they are folded into
//! [`Layers`] and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One timed call. `parent` indexes the recorder's span list;
/// `request_id` is shared by every span of one request.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request_id: u64,
}

/// An entered, not yet exited span.
pub struct Open {
    index: Option<u32>,
    start: Instant,
}

/// Per-thread span list. Disabled, it still times (the untraced run
/// needs latencies) but records nothing.
pub struct Recorder {
    origin: Instant,
    lane: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u64,
}

impl Recorder {
    /// `origin` is shared by all lanes so their timestamps compare.
    pub fn new(origin: Instant, lane: u32) -> Self {
        Recorder {
            origin,
            lane,
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Moves the recorded spans out, leaving an empty recorder.
    pub fn take(&mut self) -> Recorder {
        let empty = Recorder::new(self.origin, self.lane);
        std::mem::replace(self, empty)
    }

    pub fn lane(&self) -> u32 {
        self.lane
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn request(&mut self, id: u64) {
        self.request_id = id;
    }

    /// Opens a span that will have children; pair with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let index = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                request_id: self.request_id,
            });
            self.open.push(index);
            index
        });
        Open { index, start }
    }

    /// Closes `open`, returning its duration in nanoseconds.
    pub fn exit(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index as usize].end_ns = (end - self.origin).as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must nest");
        }
        (end - open.start).as_nanos() as u64
    }

    /// Times one call into a layer; returns its result and duration.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.enter(name);
        let out = f();
        let ns = self.exit(open);
        (out, ns)
    }
}

/// Per-name durations and self time (duration minus the part covered by
/// child spans) over every lane.
#[derive(Default)]
pub struct Layers {
    pub durations: BTreeMap<&'static str, Samples>,
    pub self_ns: BTreeMap<&'static str, u64>,
    pub spans: usize,
    /// What [`Self::get`] answers for a name no span carried.
    none: Samples,
}

impl Layers {
    pub fn fold(recorders: &[Recorder]) -> Layers {
        let mut layers = Layers::default();
        for rec in recorders {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for span in &rec.spans {
                if let Some(p) = span.parent {
                    child_ns[p as usize] += span.end_ns - span.start_ns;
                }
            }
            for (span, covered) in rec.spans.iter().zip(child_ns) {
                let dur = span.end_ns - span.start_ns;
                layers.durations.entry(span.name).or_default().push(dur);
                *layers.self_ns.entry(span.name).or_default() += dur.saturating_sub(covered);
            }
            layers.spans += rec.spans.len();
        }
        layers
    }

    /// Durations of the spans named `name` (empty when there were none:
    /// a layer that did no work).
    pub fn get(&self, name: &str) -> &Samples {
        self.durations.get(name).unwrap_or(&self.none)
    }

    /// Σ self time of `name` over Σ its duration: the share of those
    /// spans no child span accounts for.
    pub fn self_share(&self, name: &str) -> f64 {
        let total = self.get(name).sum();
        if total == 0 {
            return 0.0;
        }
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / total as f64
    }
}

/// Writes the spans (at most `cap` per lane: a run records hundreds of
/// thousands) to `path` as one JSON document.
pub fn write_json(
    path: &Path,
    workload: &str,
    recorders: &[Recorder],
    cap: usize,
) -> std::io::Result<()> {
    let mut doc = String::new();
    let total: usize = recorders.iter().map(|r| r.spans.len()).sum();
    let _ = write!(
        doc,
        "{{\"workload\":\"{workload}\",\"spans_recorded\":{total},\"spans_per_lane_cap\":{cap},\"lanes\":["
    );
    for (i, rec) in recorders.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        let _ = write!(doc, "{{\"lane\":{},\"spans\":[", rec.lane);
        for (j, s) in rec.spans.iter().take(cap).enumerate() {
            if j > 0 {
                doc.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                doc,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request_id
            );
        }
        doc.push_str("]}");
    }
    doc.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.set_enabled(true);
        let outer = rec.enter("outer");
        rec.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.exit(outer);
        let layers = Layers::fold(&[rec]);
        let outer = layers.durations["outer"].sum();
        let inner = layers.durations["inner"].sum();
        assert!(inner >= 2_000_000 && outer >= inner);
        assert_eq!(layers.self_ns["outer"], outer - inner);
        assert_eq!(layers.self_ns["inner"], inner);
    }

    #[test]
    fn disabled_recorder_times_but_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), 0);
        let (v, ns) = rec.leaf("x", || 7);
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert_eq!(Layers::fold(&[rec]).spans, 0);
    }
}
