//! From-scratch machine-learning toolkit for the placement model.
//!
//! The paper trains a *multi-output Random Forest regressor* whose inputs
//! are performance observations in two placements and whose output is the
//! full relative-performance vector over all important placements (§5),
//! chosen by leave-family-out cross-validation. The paper's other learning
//! — k-means for Figure 3, Sequential Forward Selection for the HPE
//! baseline of Figure 4 — draws figures only and lives with them in
//! `vc-bench`.
//!
//! Everything here is implemented from scratch on top of `rand` so the
//! whole pipeline is deterministic under a fixed seed.
//!
//! # Examples
//!
//! ```
//! use vc_ml::forest::{ForestConfig, RandomForest};
//!
//! // Learn y = [x0 + x1, x0 - x1] from noisy samples.
//! let xs: Vec<Vec<f64>> = (0..200)
//!     .map(|i| vec![(i % 20) as f64, (i / 20) as f64])
//!     .collect();
//! let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0] + x[1], x[0] - x[1]]).collect();
//! let rf = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 42);
//! let pred = rf.predict(&[10.0, 3.0]);
//! assert!((pred[0] - 13.0).abs() < 2.0);
//! ```

#![warn(missing_docs)]

pub mod cv;
pub mod forest;
pub mod metrics;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use tree::{DecisionTree, TreeConfig};
