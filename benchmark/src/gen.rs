//! Seeded input generation: every draw of every workload comes from a
//! [`SplitMix`] stream seeded by `--seed`, so the same seed gives the
//! same script. The engine sees only the generated requests.

use vc_engine::{Placed, PlacementRequest};

/// The request workloads (paper-suite names).
pub const WORKLOADS: [&str; 5] = ["WTbtree", "swaptions", "blast", "kmeans", "streamcluster"];

/// vCPU sizes, every one a size the catalogs enumerate ≥ 2 placements
/// for on all three machine classes (48 panics inside
/// `select_probe_pair`, see the README's defect list).
pub const ALL_SIZES: [usize; 5] = [2, 4, 8, 16, 32];

/// `served_steady` size mix: weights 25/30/25/15/5 for 2/4/8/16/32.
pub const SERVED_SIZES: [usize; 20] = [
    2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8, 8, 16, 16, 16, 32,
];

/// `colocated_churn` size mix (uniform over the table).
pub const CHURN_SIZES: [usize; 8] = [2, 2, 4, 4, 4, 8, 8, 16];

/// `batch_packed` pool sizes (uniform over the table).
pub const BATCH_SIZES: [usize; 4] = [4, 8, 16, 16];

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (the modulo bias at these `n` is < 2⁻⁵⁰).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An independent stream for client thread `lane`, drawn from this
    /// one.
    pub fn fork(&mut self, lane: u64) -> SplitMix {
        SplitMix::new(self.next_u64() ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }
}

/// A shuffled deck of every `(workload, size-table entry)` pair, dealt
/// in seeded order and reshuffled when it runs out. Each pass over the
/// deck has exactly the same composition, so what a run costs does not
/// depend on which sizes a seed happened to draw — the seed decides
/// order, probe seeds and which container departs.
#[derive(Debug, Clone)]
pub struct Deck {
    cards: Vec<(&'static str, usize)>,
    next: usize,
}

impl Deck {
    pub fn new(sizes: &[usize]) -> Self {
        let cards: Vec<(&'static str, usize)> = WORKLOADS
            .iter()
            .flat_map(|&w| sizes.iter().map(move |&v| (w, v)))
            .collect();
        Deck {
            next: cards.len(),
            cards,
        }
    }

    /// One request: the next card, goal `goal`, and a fresh 64-bit probe
    /// seed (so no two requests repeat a probe).
    pub fn request(&mut self, rng: &mut SplitMix, goal: f64) -> PlacementRequest {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
            self.next = 0;
        }
        let (workload, vcpus) = self.cards[self.next];
        self.next += 1;
        PlacementRequest::new(workload, vcpus)
            .with_goal(goal)
            .with_probe_seed(rng.next_u64())
    }
}

/// FNV-1a over the fields fed to it: the script digest (what was asked)
/// and the decision digest (what the engine answered).
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    /// Items fed so far (requests or decisions).
    pub items: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            items: 0,
        }
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn request(&mut self, req: &PlacementRequest) {
        self.bytes(req.workload.as_bytes());
        self.word(req.vcpus as u64);
        self.word(req.goal_frac.to_bits());
        self.word(req.probe_seed);
        self.items += 1;
    }

    /// `request → (machine, placement_id, threads)`; a rejection feeds
    /// a marker so it cannot alias a placement.
    pub fn decision(&mut self, placed: Option<&Placed>) {
        match placed {
            Some(p) => {
                self.word(p.machine.0 as u64);
                self.word(p.placement_id as u64);
                for t in &p.threads {
                    self.word(t.index() as u64);
                }
            }
            None => self.word(u64::MAX),
        }
        self.items += 1;
    }

    /// Folds another lane's digest into this one (lane order fixed by
    /// the caller).
    pub fn merge(&mut self, other: &Digest) {
        self.word(other.hash);
        self.items += other.items;
    }

    pub fn value(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script() {
        let draw = |seed| {
            let mut rng = SplitMix::new(seed);
            let mut deck = Deck::new(&SERVED_SIZES);
            let mut d = Digest::default();
            for _ in 0..100 {
                d.request(&deck.request(&mut rng, 0.9));
            }
            d.value()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn every_pass_over_the_deck_has_the_same_composition() {
        let mut rng = SplitMix::new(9);
        let mut deck = Deck::new(&CHURN_SIZES);
        let mut passes = Vec::new();
        for _ in 0..3 {
            let mut pass: Vec<(String, usize)> = (0..WORKLOADS.len() * CHURN_SIZES.len())
                .map(|_| deck.request(&mut rng, 0.0))
                .map(|r| (r.workload, r.vcpus))
                .collect();
            pass.sort();
            passes.push(pass);
        }
        assert_eq!(passes[0], passes[1]);
        assert_eq!(passes[1], passes[2]);
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567 from the reference C code.
        let mut rng = SplitMix::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }
}
