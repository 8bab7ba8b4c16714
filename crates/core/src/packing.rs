//! Algorithm 2: generating packings of placements.
//!
//! A *packing* partitions all NUMA nodes into placements whose sizes are
//! balanced, feasible node scores. The scheduler must be able to predict
//! performance on any placement that can co-exist with others on the same
//! machine, so every placement appearing in any packing is a candidate
//! important placement (§4).

use vc_sync::Counter;
use vc_topology::NodeId;

/// A sorted set of NUMA nodes forming one placement.
pub type NodeSet = Vec<NodeId>;

/// Process-wide count of [`generate_packings`] runs.
static GENERATIONS: Counter = Counter::new();

/// How many times [`generate_packings`] has run in this process.
///
/// Instrumentation for tests and benchmarks that assert the enumeration
/// is not repeated behind a cache (packing generation is the most
/// expensive step of a cold catalog miss).
pub fn generations() -> u64 {
    GENERATIONS.get()
}

/// A partition of all NUMA nodes into placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packing {
    /// The parts, each sorted; parts ordered by (length, node ids) so the
    /// representation is canonical.
    pub parts: Vec<NodeSet>,
}

impl Packing {
    fn canonicalise(mut parts: Vec<NodeSet>) -> Self {
        for p in &mut parts {
            p.sort();
        }
        parts.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        Packing { parts }
    }

    /// Multiset of part sizes, sorted ascending (the paper's "L3 scores of
    /// the packing").
    pub fn size_signature(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.parts.iter().map(|p| p.len()).collect();
        s.sort_unstable();
        s
    }
}

/// Generates every packing of `num_nodes` nodes into parts whose sizes are
/// drawn from `node_scores` (Algorithm 2, `GenPack`).
///
/// Each set partition is produced exactly once: the recursion always
/// places the smallest remaining node into the next part, which
/// canonicalises away the orderings Algorithm 2 would otherwise
/// enumerate and later dedup.
pub fn generate_packings(num_nodes: usize, node_scores: &[usize]) -> Vec<Packing> {
    GENERATIONS.incr();
    let mut packings = Vec::new();
    let nodes: Vec<NodeId> = (0..num_nodes).map(NodeId).collect();
    let mut current: Vec<NodeSet> = Vec::new();
    gen_pack(&nodes, node_scores, &mut current, &mut packings);
    packings
}

fn gen_pack(
    nodes_left: &[NodeId],
    scores: &[usize],
    current: &mut Vec<NodeSet>,
    out: &mut Vec<Packing>,
) {
    if nodes_left.is_empty() {
        out.push(Packing::canonicalise(current.clone()));
        return;
    }
    let anchor = nodes_left[0];
    let rest = &nodes_left[1..];
    for &s in scores {
        if s > nodes_left.len() {
            continue;
        }
        // Choose s-1 companions for the anchor from the remaining nodes.
        let mut combo = Vec::with_capacity(s);
        choose(rest, s - 1, &mut combo, &mut |companions| {
            let mut part: NodeSet = Vec::with_capacity(s);
            part.push(anchor);
            part.extend_from_slice(companions);
            let remaining: Vec<NodeId> = rest
                .iter()
                .copied()
                .filter(|n| !companions.contains(n))
                .collect();
            current.push(part);
            gen_pack(&remaining, scores, current, out);
            current.pop();
        });
    }
}

/// Calls `f` with every `k`-combination of `items` (in order). Shared
/// with the availability retargeting in [`crate::availability`].
pub(crate) fn choose<F: FnMut(&[NodeId])>(items: &[NodeId], k: usize, buf: &mut Vec<NodeId>, f: &mut F) {
    if buf.len() == k {
        f(buf);
        return;
    }
    let needed = k - buf.len();
    for i in 0..items.len() {
        if items.len() - i < needed {
            break;
        }
        buf.push(items[i]);
        choose(&items[i + 1..], k, buf, f);
        buf.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_nodes_single_score() {
        let p = generate_packings(2, &[2]);
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].parts, vec![vec![NodeId(0), NodeId(1)]]);
    }

    #[test]
    fn four_nodes_pairs_enumerates_perfect_matchings() {
        let p = generate_packings(4, &[2]);
        // Perfect matchings of 4 elements: 3.
        assert_eq!(p.len(), 3);
        for packing in &p {
            assert_eq!(packing.size_signature(), vec![2, 2]);
        }
    }

    #[test]
    fn eight_nodes_pairs_enumerates_105_matchings() {
        let p = generate_packings(8, &[2]);
        assert_eq!(p.len(), 105); // 7!! = 105 perfect matchings
    }

    #[test]
    fn amd_score_set_counts() {
        // Sizes {2,4,8} over 8 nodes: 105 matchings + C(8,4)/2 = 35
        // (4,4)-packings + 210 (2,2,4)-packings + 1 whole machine.
        let p = generate_packings(8, &[2, 4, 8]);
        let count_by_sig = |sig: &[usize]| p.iter().filter(|pk| pk.size_signature() == sig).count();
        assert_eq!(count_by_sig(&[2, 2, 2, 2]), 105);
        assert_eq!(count_by_sig(&[4, 4]), 35);
        assert_eq!(count_by_sig(&[2, 2, 4]), 210);
        assert_eq!(count_by_sig(&[8]), 1);
        assert_eq!(p.len(), 105 + 35 + 210 + 1);
    }

    #[test]
    fn intel_score_set_counts() {
        // Sizes {1,2,3,4} over 4 nodes: all set partitions of 4 = Bell(4)
        // = 15.
        let p = generate_packings(4, &[1, 2, 3, 4]);
        assert_eq!(p.len(), 15);
    }

    #[test]
    fn no_duplicate_packings_are_generated() {
        let p = generate_packings(8, &[2, 4, 8]);
        for i in 0..p.len() {
            for j in i + 1..p.len() {
                assert_ne!(p[i], p[j], "duplicate packing at {i} and {j}");
            }
        }
    }

    #[test]
    fn every_packing_covers_all_nodes_exactly_once() {
        for packing in generate_packings(6, &[2, 3, 6]) {
            let mut seen = [false; 6];
            for part in &packing.parts {
                for n in part {
                    assert!(!seen[n.index()]);
                    seen[n.index()] = true;
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn impossible_score_sets_produce_nothing() {
        // Only size 5 over 8 nodes cannot tile the machine.
        assert!(generate_packings(8, &[5]).is_empty());
    }
}
