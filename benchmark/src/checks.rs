//! Output checks: a run whose outputs are wrong reports
//! `"correct": false` and exits non-zero.

use vc_engine::{EngineStats, PlacementEngine};

/// Failed checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Checkpoint: the vCPUs the harness believes are live equal the
    /// threads the fleet reports reserved.
    pub fn live_vcpus(&mut self, engine: &PlacementEngine, live_vcpus: usize, at: &str) {
        let used = used_threads(engine);
        self.expect(used == live_vcpus, || {
            format!("{at}: harness holds {live_vcpus} live vCPUs, fleet reports {used} reserved")
        });
    }

    /// After the drain: no resident anywhere, every host empty.
    pub fn drained(&mut self, engine: &PlacementEngine) {
        let residents = engine.num_residents();
        let used = used_threads(engine);
        self.expect(residents == 0 && used == 0, || {
            format!("after drain: {residents} residents, {used} threads still reserved")
        });
        let failures = engine.stats().release_failures;
        self.expect(failures == 0, || format!("{failures} release failures"));
    }

    /// A warm timed phase trains nothing, and a neighbour-blind engine
    /// never consults the interference model.
    pub fn warm_phase(&mut self, before: &EngineStats, after: &EngineStats, interference: bool) {
        let computes = after.total_computes() - before.total_computes();
        self.expect(computes == 0, || {
            format!("{computes} cache computes inside a warm timed phase")
        });
        let lookups = after.interference.lookups - before.interference.lookups;
        self.expect(interference || lookups == 0, || {
            format!("{lookups} interference lookups with interference off")
        });
    }
}

/// Σ reserved hardware threads over the fleet.
pub fn used_threads(engine: &PlacementEngine) -> usize {
    engine
        .machine_ids()
        .into_iter()
        .map(|id| engine.utilisation(id).0)
        .sum()
}

/// Hosts with at least one reserved thread — the Fig. 5 packing
/// quantity.
pub fn occupied_hosts(engine: &PlacementEngine) -> usize {
    engine
        .machine_ids()
        .into_iter()
        .filter(|&id| engine.utilisation(id).0 > 0)
        .count()
}
