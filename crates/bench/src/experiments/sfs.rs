//! Sequential Forward Selection (SFS).
//!
//! The paper starts from a plausible set of hardware performance events
//! (41 on Intel, 25 on AMD) and uses SFS to pick the best subset for the
//! HPE-feature model (§5). SFS greedily adds the feature that most
//! improves a caller-supplied score until no candidate improves it.

/// Result of a selection run.
#[derive(Debug, Clone)]
pub struct SfsResult {
    /// Selected feature indices, in the order they were added.
    pub selected: Vec<usize>,
    /// Score of the final selection (lower is better).
    pub score: f64,
}

/// Runs SFS over `n_features`, scoring candidate subsets with `score_fn`
/// (lower is better, e.g. cross-validated error).
///
/// Stops when adding any remaining feature fails to improve the score by
/// at least `min_improvement`, or when `max_features` are selected.
pub fn sequential_forward_selection<F>(
    n_features: usize,
    max_features: usize,
    min_improvement: f64,
    mut score_fn: F,
) -> SfsResult
where
    F: FnMut(&[usize]) -> f64,
{
    let mut selected: Vec<usize> = Vec::new();
    let mut best_score = f64::INFINITY;

    while selected.len() < max_features.min(n_features) {
        let mut best_candidate: Option<(usize, f64)> = None;
        for f in 0..n_features {
            if selected.contains(&f) {
                continue;
            }
            let mut trial = selected.clone();
            trial.push(f);
            let s = score_fn(&trial);
            if best_candidate.is_none_or(|(_, bs)| s < bs) {
                best_candidate = Some((f, s));
            }
        }
        let Some((f, s)) = best_candidate else {
            break;
        };
        if s < best_score - min_improvement {
            selected.push(f);
            best_score = s;
        } else {
            break;
        }
    }
    SfsResult {
        selected,
        score: best_score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_informative_features_first() {
        // Feature 2 alone gives score 1.0; adding feature 0 improves to
        // 0.5; everything else is useless.
        let score = |sel: &[usize]| -> f64 {
            let mut s = 10.0;
            if sel.contains(&2) {
                s -= 9.0;
            }
            if sel.contains(&2) && sel.contains(&0) {
                s -= 0.5;
            }
            s + sel.len() as f64 * 0.01
        };
        let r = sequential_forward_selection(5, 5, 0.05, score);
        assert_eq!(r.selected, vec![2, 0]);
    }

    #[test]
    fn stops_when_no_improvement() {
        let score = |sel: &[usize]| 1.0 + sel.len() as f64; // adding hurts
        let r = sequential_forward_selection(4, 4, 0.0, score);
        // First addition is accepted only if it beats infinity; it does,
        // second addition increases the score and stops the loop.
        assert_eq!(r.selected.len(), 1);
    }

    #[test]
    fn respects_max_features() {
        let score = |sel: &[usize]| -(sel.len() as f64); // always improves
        let r = sequential_forward_selection(10, 3, 0.0, score);
        assert_eq!(r.selected.len(), 3);
    }

    #[test]
    fn gains_below_min_improvement_stop_the_search() {
        // Feature 0 alone scores 1.0; each further feature gains 0.01.
        let score = |sel: &[usize]| -> f64 {
            let base = if sel.contains(&0) { 1.0 } else { 2.0 };
            base - 0.01 * (sel.len() as f64 - 1.0)
        };
        let r = sequential_forward_selection(4, 4, 0.05, score);
        assert_eq!(r.selected, vec![0]);
        assert_eq!(r.score, 1.0);
        let greedy = sequential_forward_selection(4, 4, 0.0, score);
        assert_eq!(greedy.selected.len(), 4);
    }

    #[test]
    fn score_is_that_of_the_final_selection() {
        let score = |sel: &[usize]| -> f64 {
            sel.iter()
                .map(|&f| [0.4, 0.1, 0.3, 0.05][f])
                .fold(1.0, |s, gain| s - gain)
        };
        let r = sequential_forward_selection(4, 3, 0.0, score);
        assert_eq!(r.selected, vec![0, 2, 1]);
        assert_eq!(r.score, score(&r.selected));
    }

    #[test]
    fn zero_features_yields_empty_selection() {
        let r = sequential_forward_selection(0, 3, 0.0, |_| 0.0);
        assert!(r.selected.is_empty());
        assert_eq!(r.score, f64::INFINITY);
    }
}
