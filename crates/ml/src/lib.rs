//! From-scratch machine-learning toolkit for the placement model.
//!
//! The paper trains a *multi-output Random Forest regressor* whose inputs
//! are performance observations in two placements and whose output is the
//! full relative-performance vector over all important placements (§5). It
//! also uses k-means clustering with silhouette-based `k` selection to show
//! that workloads fall into a small number of performance-shape categories
//! (Figure 3), and Sequential Forward Selection to pick hardware
//! performance events for the baseline HPE model.
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
pub mod kmeans;
pub mod metrics;
pub mod sfs;
pub mod tree;

pub use forest::{ForestConfig, RandomForest};
pub use kmeans::{KMeans, KMeansConfig};
pub use tree::{DecisionTree, TreeConfig};
