//! Container memory migration cost model (§7, Table 2).
//!
//! When the placement model probes a container in two placements, its
//! memory may have to move between NUMA node sets. The paper improves on
//! default Linux migration by (a) migrating the page cache, which Linux
//! leaves behind, (b) copying with concurrent worker threads, and (c)
//! reducing locking overhead — at the cost of freezing the container, or
//! alternatively throttling the copy for latency-sensitive workloads.
//!
//! The model here reproduces the *cost structure* behind Table 2:
//!
//! * **Fast migration** moves anonymous memory *and* page cache at
//!   parallel-copy bandwidth, with a tiny per-task cost.
//! * **Default Linux** moves only anonymous memory, at per-page syscall
//!   speed (transparent huge pages migrate faster), and pays a per-task
//!   cpuset/mempolicy rebind cost that grows with the address-space size
//!   — which is why the many-process TPC-C takes 431 s.
//! * **Throttled** mode bounds the copy bandwidth so the running
//!   container only loses a few percent of throughput while the migration
//!   takes correspondingly longer.

#![warn(missing_docs)]

use vc_workloads::Workload;

/// Calibrated cost constants. [`MigrationModel::default`] reproduces
/// Table 2 on the AMD system.
#[derive(Debug, Clone)]
pub struct MigrationModel {
    /// Parallel-copy bandwidth of fast migration (GB/s).
    pub fast_copy_bw_gbs: f64,
    /// Fast migration per-task bookkeeping cost (s).
    pub fast_per_task_s: f64,
    /// Fast migration fixed setup cost (s).
    pub fast_base_s: f64,
    /// Default Linux copy bandwidth for 4 KiB pages (GB/s).
    pub linux_small_page_bw_gbs: f64,
    /// Default Linux copy bandwidth for transparent huge pages (GB/s).
    pub linux_huge_page_bw_gbs: f64,
    /// Linux per-task fixed cpuset cost (s).
    pub linux_per_task_s: f64,
    /// Linux per-task cost per GB of address space (mempolicy rebind
    /// walks the task's VMAs; s per GB).
    pub linux_per_task_per_gb_s: f64,
    /// Linux fixed setup cost (s).
    pub linux_base_s: f64,
}

impl Default for MigrationModel {
    fn default() -> Self {
        MigrationModel {
            fast_copy_bw_gbs: 6.3,
            fast_per_task_s: 0.04,
            fast_base_s: 0.1,
            linux_small_page_bw_gbs: 0.3,
            linux_huge_page_bw_gbs: 3.0,
            linux_per_task_s: 0.05,
            linux_per_task_per_gb_s: 0.207,
            linux_base_s: 0.1,
        }
    }
}

/// Predicted cost of one migration.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationEstimate {
    /// Wall-clock duration of the migration (s).
    pub duration_s: f64,
    /// Data actually moved (GB).
    pub moved_gb: f64,
    /// Time the container is frozen (s); 0 for throttled mode.
    pub frozen_s: f64,
    /// Throughput loss of the running container during migration (%);
    /// 0 when frozen (the container is not running at all).
    pub runtime_overhead_pct: f64,
    /// Whether the page cache moves with the container.
    pub migrates_page_cache: bool,
}

/// How a rebalancing move is executed — which §7 cost structure prices
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MigrationMode {
    /// The paper's fast migration: freeze the container, copy anonymous
    /// memory *and* page cache with parallel workers.
    Fast,
    /// Fast migration with the copy bandwidth capped (GB/s): the
    /// container keeps running at a few percent overhead.
    Throttled {
        /// Copy-bandwidth cap in GB/s (clamped to the fast-copy peak).
        bw_gbs: f64,
    },
    /// Stock Linux `cpuset`/`mempolicy` migration: anonymous memory
    /// only, per-page syscalls, per-task rebind costs.
    LinuxDefault,
}

impl MigrationModel {
    /// Effective Linux copy bandwidth for a workload, accounting for its
    /// THP fraction. Reads [`Workload::thp_fraction`] — an earlier
    /// revision matched on workload *names*, silently handing every
    /// generated or renamed workload the worst-case 4 KiB-page estimate.
    fn linux_bw(&self, w: &Workload) -> f64 {
        let thp = w.thp_fraction;
        self.linux_small_page_bw_gbs * (1.0 - thp) + self.linux_huge_page_bw_gbs * thp
    }

    /// Prices one migration of `w` in the given mode.
    pub fn estimate(&self, w: &Workload, mode: MigrationMode) -> MigrationEstimate {
        match mode {
            MigrationMode::Fast => self.fast(w),
            MigrationMode::Throttled { bw_gbs } => self.throttled(w, bw_gbs),
            MigrationMode::LinuxDefault => self.linux_default(w),
        }
    }

    /// The paper's fast migration (freeze mode): moves anonymous memory
    /// and page cache with parallel workers.
    pub fn fast(&self, w: &Workload) -> MigrationEstimate {
        let moved = w.memory_gb();
        let duration = moved / self.fast_copy_bw_gbs
            + w.processes as f64 * self.fast_per_task_s
            + self.fast_base_s;
        MigrationEstimate {
            duration_s: duration,
            moved_gb: moved,
            frozen_s: duration,
            runtime_overhead_pct: 0.0,
            migrates_page_cache: true,
        }
    }

    /// Default Linux migration: anonymous memory only, per-page costs,
    /// per-task cpuset/mempolicy rebind overhead. Freezes the workload
    /// for a few seconds on large address spaces.
    pub fn linux_default(&self, w: &Workload) -> MigrationEstimate {
        let duration = w.anon_gb / self.linux_bw(w)
            + w.processes as f64
                * (self.linux_per_task_s + self.linux_per_task_per_gb_s * w.anon_gb)
            + self.linux_base_s;
        MigrationEstimate {
            duration_s: duration,
            moved_gb: w.anon_gb,
            // Lock contention stalls the application for seconds on big
            // address spaces (§7: "completely freezes the applications
            // for several seconds").
            frozen_s: (0.5 + 0.2 * w.anon_gb).min(duration),
            runtime_overhead_pct: 20.0,
            migrates_page_cache: false,
        }
    }

    /// Fast migration with the copy bandwidth throttled to `bw_gbs`
    /// (§7's option for latency-sensitive workloads): the container keeps
    /// running, losing only a few percent of throughput.
    pub fn throttled(&self, w: &Workload, bw_gbs: f64) -> MigrationEstimate {
        assert!(bw_gbs > 0.0, "throttle bandwidth must be positive");
        let bw = bw_gbs.min(self.fast_copy_bw_gbs);
        let moved = w.memory_gb();
        MigrationEstimate {
            duration_s: moved / bw + w.processes as f64 * self.fast_per_task_s + self.fast_base_s,
            moved_gb: moved,
            frozen_s: 0.0,
            // Overhead grows with the bandwidth the copy steals.
            runtime_overhead_pct: 2.0 + 4.0 * (bw / 1.0).sqrt(),
            migrates_page_cache: true,
        }
    }

    /// Convenience: the Table 2 row (memory GB, fast s, default Linux s)
    /// for a workload.
    pub fn table2_row(&self, w: &Workload) -> (f64, f64, f64) {
        (
            w.memory_gb(),
            self.fast(w).duration_s,
            self.linux_default(w).duration_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_workloads::suite::{paper_suite, workload_by_name};

    /// Table 2 of the paper: (name, memory GB, fast s, default Linux s).
    pub const TABLE2: [(&str, f64, f64, f64); 18] = [
        ("blast", 18.5, 3.0, 5.9),
        ("canneal", 1.1, 0.3, 3.9),
        ("fluidanimate", 0.7, 0.3, 2.3),
        ("freqmine", 1.3, 0.3, 4.2),
        ("gcc", 1.4, 0.3, 2.8),
        ("kmeans", 7.2, 1.5, 6.5),
        ("pca", 12.0, 2.8, 10.0),
        ("postgres-tpch", 26.8, 5.8, 117.1),
        ("postgres-tpcc", 37.7, 14.9, 431.0),
        ("spark-cc", 17.0, 3.7, 139.9),
        ("spark-pr-lj", 17.1, 3.8, 137.0),
        ("streamcluster", 0.1, 0.1, 0.4),
        ("swaptions", 0.01, 0.1, 0.0),
        ("ft.C", 5.0, 1.3, 19.4),
        ("dc.B", 27.3, 5.4, 51.7),
        ("wc", 15.4, 3.4, 19.5),
        ("wr", 17.1, 3.6, 18.9),
        ("WTbtree", 36.3, 6.3, 43.8),
    ];

    #[test]
    fn fast_migration_tracks_table_2() {
        let m = MigrationModel::default();
        for (name, _, fast_s, _) in TABLE2 {
            let w = workload_by_name(name).unwrap();
            let est = m.fast(&w).duration_s;
            let tol = (fast_s * 0.45).max(0.25);
            assert!(
                (est - fast_s).abs() <= tol,
                "{name}: fast {est:.2} vs paper {fast_s}"
            );
        }
    }

    #[test]
    fn linux_migration_tracks_table_2() {
        let m = MigrationModel::default();
        for (name, _, _, linux_s) in TABLE2 {
            let w = workload_by_name(name).unwrap();
            let est = m.linux_default(&w).duration_s;
            let tol = (linux_s * 0.45).max(1.5);
            assert!(
                (est - linux_s).abs() <= tol,
                "{name}: linux {est:.2} vs paper {linux_s}"
            );
        }
    }

    #[test]
    fn tpcc_pays_for_its_processes() {
        // The paper's headline pathology: 431 s for TPC-C, dominated by
        // per-task cpuset overhead.
        let m = MigrationModel::default();
        let w = workload_by_name("postgres-tpcc").unwrap();
        let est = m.linux_default(&w);
        assert!(est.duration_s > 350.0);
        let per_task =
            w.processes as f64 * (m.linux_per_task_s + m.linux_per_task_per_gb_s * w.anon_gb);
        assert!(per_task / est.duration_s > 0.8);
    }

    #[test]
    fn renamed_and_generated_workloads_keep_their_thp_speed() {
        // Regression: the THP fraction lives on the descriptor. A clone
        // of kmeans under a generated name must migrate at the same
        // huge-page-assisted bandwidth — the old name lookup gave it
        // 0.0 THP and the worst-case 4 KiB estimate.
        let m = MigrationModel::default();
        let kmeans = workload_by_name("kmeans").unwrap();
        let mut clone = kmeans.clone();
        clone.name = "kmeans-7f3a".to_string();
        assert_eq!(
            m.linux_default(&clone).duration_s,
            m.linux_default(&kmeans).duration_s
        );
        // And a synthetic workload with a big heap is strictly faster
        // than the same workload stripped of its THP fraction.
        let mut synth = vc_workloads::generator::training_corpus(1, 3).remove(0);
        synth.anon_gb = 24.0;
        synth.thp_fraction = 0.45;
        let mut no_thp = synth.clone();
        no_thp.thp_fraction = 0.0;
        assert!(m.linux_default(&synth).duration_s < m.linux_default(&no_thp).duration_s);
    }

    #[test]
    fn estimate_dispatches_on_mode() {
        let m = MigrationModel::default();
        let w = workload_by_name("WTbtree").unwrap();
        assert_eq!(m.estimate(&w, MigrationMode::Fast), m.fast(&w));
        assert_eq!(
            m.estimate(&w, MigrationMode::LinuxDefault),
            m.linux_default(&w)
        );
        assert_eq!(
            m.estimate(&w, MigrationMode::Throttled { bw_gbs: 0.6 }),
            m.throttled(&w, 0.6)
        );
    }

    #[test]
    fn spark_speedup_is_an_order_of_magnitude() {
        // §7: "usually one order of magnitude faster (38x for Spark)".
        let m = MigrationModel::default();
        let w = workload_by_name("spark-cc").unwrap();
        let ratio = m.linux_default(&w).duration_s / m.fast(&w).duration_s;
        assert!((25.0..=50.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fast_is_never_slower_than_linux_for_the_suite() {
        let m = MigrationModel::default();
        for w in paper_suite() {
            // Fast moves MORE data (page cache) and is still at least as
            // fast for every suite member except the tiny ones where both
            // round to fractions of a second.
            let fast = m.fast(&w);
            let linux = m.linux_default(&w);
            assert!(
                fast.duration_s <= linux.duration_s + 0.2,
                "{}: {} vs {}",
                w.name,
                fast.duration_s,
                linux.duration_s
            );
            assert!(fast.migrates_page_cache && !linux.migrates_page_cache);
        }
    }

    #[test]
    fn fast_migration_page_cache_shares_match_section_7() {
        // §7: page cache is 93 % of BLAST's moved bytes, 75 % of TPC-C's
        // and 62 % of TPC-H's. The fast migration moves it; Linux's moves
        // anonymous memory only.
        let m = MigrationModel::default();
        for (name, lo, hi) in [
            ("blast", 0.88, 0.97),
            ("postgres-tpcc", 0.70, 0.80),
            ("postgres-tpch", 0.57, 0.67),
        ] {
            let w = workload_by_name(name).unwrap();
            let fast = m.fast(&w);
            let linux = m.linux_default(&w);
            assert!(fast.migrates_page_cache && !linux.migrates_page_cache);
            let share = (fast.moved_gb - linux.moved_gb) / fast.moved_gb;
            assert!(
                (lo..=hi).contains(&share),
                "{name}: page-cache share {share}"
            );
        }
    }

    #[test]
    fn throttled_wiredtiger_matches_section_7() {
        // §7: throttled migration of WiredTiger takes ~60 s at 3-6 %
        // overhead; Linux takes 43.8 s at >= 20 % and freezes for
        // seconds.
        let m = MigrationModel::default();
        let w = workload_by_name("WTbtree").unwrap();
        let bw = w.memory_gb() / 60.0; // aim for a 60 s migration
        let t = m.throttled(&w, bw);
        assert!((55.0..=70.0).contains(&t.duration_s), "{}", t.duration_s);
        assert!(
            (3.0..=6.0).contains(&t.runtime_overhead_pct),
            "{}",
            t.runtime_overhead_pct
        );
        assert_eq!(t.frozen_s, 0.0);
        let l = m.linux_default(&w);
        assert!(l.runtime_overhead_pct >= 20.0);
        assert!(l.frozen_s > 1.0);
    }

    #[test]
    fn overhead_grows_with_throttle_bandwidth() {
        let m = MigrationModel::default();
        let w = workload_by_name("WTbtree").unwrap();
        let slow = m.throttled(&w, 0.3);
        let fastr = m.throttled(&w, 3.0);
        assert!(fastr.runtime_overhead_pct > slow.runtime_overhead_pct);
        assert!(fastr.duration_s < slow.duration_s);
    }

    #[test]
    fn migration_cost_is_proportional_to_memory() {
        // §7: "the migration overhead is proportional to the amount of
        // memory used by the container, except in cases with extremely
        // high thread counts".
        let m = MigrationModel::default();
        let mut rows: Vec<(f64, f64)> = paper_suite()
            .iter()
            .filter(|w| w.processes <= 4)
            .map(|w| (w.memory_gb(), m.fast(w).duration_s))
            .collect();
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for pair in rows.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9);
        }
    }
}
