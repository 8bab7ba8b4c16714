//! Cross-validation index generators.
//!
//! The paper's evaluation is *per-application cross-validated*: when
//! predicting a workload, neither it nor its relatives (e.g. the two Spark
//! workloads) appear in the training set (§6). [`leave_group_out`]
//! implements exactly that discipline.

/// A single train/test split as index lists.
#[derive(Debug, Clone)]
pub struct Split {
    /// Indices of training rows.
    pub train: Vec<usize>,
    /// Indices of held-out rows.
    pub test: Vec<usize>,
}

/// Leave-one-group-out splits: one split per distinct group label, with
/// every row of that group held out.
///
/// Rows whose group appears nowhere else still form their own split, which
/// mirrors the paper's treatment of workloads without relatives.
pub fn leave_group_out(groups: &[&str]) -> Vec<Split> {
    let mut seen: Vec<&str> = Vec::new();
    for &g in groups {
        if !seen.contains(&g) {
            seen.push(g);
        }
    }
    seen.iter()
        .map(|&g| {
            let test: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, &x)| x == g)
                .map(|(i, _)| i)
                .collect();
            let train: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != g)
                .map(|(i, _)| i)
                .collect();
            Split { train, test }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leave_group_out_holds_out_whole_group() {
        let groups = ["spark", "spark", "wt", "nas", "nas", "nas"];
        let splits = leave_group_out(&groups);
        assert_eq!(splits.len(), 3);
        let spark = &splits[0];
        assert_eq!(spark.test, vec![0, 1]);
        assert_eq!(spark.train, vec![2, 3, 4, 5]);
        let nas = &splits[2];
        assert_eq!(nas.test, vec![3, 4, 5]);
    }

    #[test]
    fn singleton_groups_each_get_a_split() {
        let groups = ["a", "b", "c"];
        let splits = leave_group_out(&groups);
        assert_eq!(splits.len(), 3);
        for (i, s) in splits.iter().enumerate() {
            assert_eq!(s.test, vec![i]);
            assert_eq!(s.train.len(), 2);
        }
    }
}
