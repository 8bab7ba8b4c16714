//! Algorithm 1: generating balanced, feasible scores for counting
//! concerns.
//!
//! For a resource with `count` instances on the machine and `capacity`
//! hardware threads per instance, a score `i` (number of instances used)
//! is kept when the container's vCPUs divide evenly over the instances
//! (`v mod i == 0`, the balance assumption of §3) and each instance can
//! host its share (`v / i <= capacity`).

use vc_topology::Machine;

/// All balanced, feasible scores for a resource (Algorithm 1's loop body).
///
/// A container with zero vCPUs has no feasible score: mathematically 0 is
/// divisible by every count, but an empty container occupies nothing, so
/// the degenerate input yields an empty vector rather than relying on
/// upstream guards.
///
/// # Examples
///
/// ```
/// use vc_core::enumerate::feasible_scores;
///
/// // 16 vCPUs over 8 nodes of 8 threads each: one node cannot hold
/// // them, so the feasible node scores are 2, 4 and 8 (paper §4).
/// assert_eq!(feasible_scores(16, 8, 8), vec![2, 4, 8]);
/// ```
pub fn feasible_scores(vcpus: usize, count: usize, capacity: usize) -> Vec<usize> {
    if vcpus == 0 {
        return Vec::new();
    }
    (1..=count)
        .filter(|&i| vcpus.is_multiple_of(i) && vcpus / i <= capacity)
        .collect()
}

/// Balanced, feasible NUMA-node counts for a container (the paper's
/// `L3Scores` on machines with one L3 per node).
pub fn node_scores(machine: &Machine, vcpus: usize) -> Vec<usize> {
    feasible_scores(vcpus, machine.num_nodes(), machine.node_capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_topology::machines;

    #[test]
    fn amd_16_vcpu_scores_match_paper() {
        let amd = machines::amd_opteron_6272();
        // Paper §4: node scores {2,4,8} (one node cannot hold 16 vCPUs),
        // L2 scores {8,16}.
        assert_eq!(node_scores(&amd, 16), vec![2, 4, 8]);
        let l2_scores = feasible_scores(16, amd.num_l2_groups(), amd.l2_capacity());
        assert_eq!(l2_scores, vec![8, 16]);
        let l3_scores = feasible_scores(16, amd.num_l3_groups(), amd.l3_capacity());
        assert_eq!(l3_scores, vec![2, 4, 8]);
    }

    #[test]
    fn intel_24_vcpu_scores_match_paper() {
        let intel = machines::intel_xeon_e7_4830_v3();
        // 24 vCPUs fit a single 24-thread node; L2 scores {12, 24}.
        assert_eq!(node_scores(&intel, 24), vec![1, 2, 3, 4]);
        let l2_scores = feasible_scores(24, intel.num_l2_groups(), intel.l2_capacity());
        assert_eq!(l2_scores, vec![12, 24]);
    }

    #[test]
    fn scores_require_exact_divisibility() {
        // 12 vCPUs on AMD: node scores must divide 12 and fit 8/node.
        let amd = machines::amd_opteron_6272();
        assert_eq!(node_scores(&amd, 12), vec![2, 3, 4, 6]);
    }

    #[test]
    fn capacity_excludes_small_counts() {
        assert_eq!(feasible_scores(16, 8, 8), vec![2, 4, 8]);
        assert_eq!(feasible_scores(16, 8, 16), vec![1, 2, 4, 8]);
    }

    #[test]
    fn score_of_v_means_one_vcpu_per_instance() {
        let s = feasible_scores(8, 32, 2);
        assert!(s.contains(&8));
        assert_eq!(*s.last().unwrap(), 8); // counts above v never divide v
    }

    #[test]
    fn zero_vcpus_yield_no_scores() {
        // Degenerate input: 0 is divisible by everything, but an empty
        // container has no feasible placement, so the guard lives here
        // rather than only at the placement layer.
        assert_eq!(feasible_scores(0, 3, 1), Vec::<usize>::new());
        assert_eq!(feasible_scores(0, 8, 64), Vec::<usize>::new());
    }
}
