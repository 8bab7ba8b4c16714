//! Plain-text machine specifications.
//!
//! The paper's Step 1 has the user provide "a simple abstract
//! specification of the shared resources present on the target hardware"
//! and envisions concern specifications shipping with the system BIOS
//! (§4). This module parses such specifications from a small line-based
//! format, so new machines can be described without writing Rust:
//!
//! ```text
//! # comment
//! machine Quad Opteron
//! clock_ghz 2.1
//! packages 4
//! nodes_per_package 2
//! l3_groups_per_node 1
//! l2_groups_per_l3 4
//! cores_per_l2 2
//! threads_per_core 1
//! dram_bw_gbs 12.8
//! l2_mib 2.0
//! l3_mib 8.0
//! link 0 1 3.5
//! link 0 2 1.6
//! ```
//!
//! Unspecified fields keep the [`MachineBuilder`] defaults.

use std::fmt;

use crate::machine::{CacheConfig, Machine, MachineBuilder, TopologyError};

/// Errors from parsing a machine specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A line did not match `key value...`.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A value failed to parse as the expected type.
    BadValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value was bad.
        key: String,
    },
    /// An unknown key.
    UnknownKey {
        /// 1-based line number.
        line: usize,
        /// The key.
        key: String,
    },
    /// The resulting machine failed validation.
    Invalid(TopologyError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Malformed { line, text } => {
                write!(f, "line {line}: malformed entry '{text}'")
            }
            SpecError::BadValue { line, key } => {
                write!(f, "line {line}: bad value for '{key}'")
            }
            SpecError::UnknownKey { line, key } => {
                write!(f, "line {line}: unknown key '{key}'")
            }
            SpecError::Invalid(e) => write!(f, "invalid machine: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses a machine from the line-based specification format.
pub fn parse_machine(text: &str) -> Result<Machine, SpecError> {
    let mut builder = MachineBuilder::new("unnamed machine");
    let mut caches = CacheConfig {
        l2_size_mib: 0.5,
        l3_size_mib: 16.0,
    };

    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let key = parts.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = parts.collect();

        let one = |rest: &[&str]| -> Result<String, SpecError> {
            if rest.len() == 1 {
                Ok(rest[0].to_string())
            } else {
                Err(SpecError::Malformed {
                    line,
                    text: trimmed.to_string(),
                })
            }
        };
        let usize_val = |rest: &[&str]| -> Result<usize, SpecError> {
            one(rest)?.parse().map_err(|_| SpecError::BadValue {
                line,
                key: key.to_string(),
            })
        };
        let f64_val = |rest: &[&str]| -> Result<f64, SpecError> {
            one(rest)?.parse().map_err(|_| SpecError::BadValue {
                line,
                key: key.to_string(),
            })
        };

        builder = match key {
            "machine" => {
                if rest.is_empty() {
                    return Err(SpecError::Malformed {
                        line,
                        text: trimmed.to_string(),
                    });
                }
                MachineBuilder::rename(builder, rest.join(" "))
            }
            "clock_ghz" => builder.clock_ghz(f64_val(&rest)?),
            "packages" => builder.packages(usize_val(&rest)?),
            "nodes_per_package" => builder.nodes_per_package(usize_val(&rest)?),
            "l3_groups_per_node" => builder.l3_groups_per_node(usize_val(&rest)?),
            "l2_groups_per_l3" => builder.l2_groups_per_l3(usize_val(&rest)?),
            "cores_per_l2" => builder.cores_per_l2(usize_val(&rest)?),
            "threads_per_core" => builder.threads_per_core(usize_val(&rest)?),
            "dram_bw_gbs" => builder.dram_bw_gbs(f64_val(&rest)?),
            "l2_mib" => {
                caches.l2_size_mib = f64_val(&rest)?;
                builder
            }
            "l3_mib" => {
                caches.l3_size_mib = f64_val(&rest)?;
                builder
            }
            "link" => {
                if rest.len() != 3 {
                    return Err(SpecError::Malformed {
                        line,
                        text: trimmed.to_string(),
                    });
                }
                let parse_u = |s: &str| -> Result<usize, SpecError> {
                    s.parse().map_err(|_| SpecError::BadValue {
                        line,
                        key: "link".to_string(),
                    })
                };
                let parse_f = |s: &str| -> Result<f64, SpecError> {
                    s.parse().map_err(|_| SpecError::BadValue {
                        line,
                        key: "link".to_string(),
                    })
                };
                builder.link(parse_u(rest[0])?, parse_u(rest[1])?, parse_f(rest[2])?)
            }
            "full_mesh" => builder.full_mesh(f64_val(&rest)?),
            other => {
                return Err(SpecError::UnknownKey {
                    line,
                    key: other.to_string(),
                })
            }
        };
    }
    builder.caches(caches).build().map_err(SpecError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    const TOY: &str = "\
# a toy two-socket machine
machine toy spec box
clock_ghz 2.4
packages 2
nodes_per_package 1
l2_groups_per_l3 2
cores_per_l2 2
l2_mib 1.0
l3_mib 12.0
link 0 1 6.4
";

    #[test]
    fn parses_a_complete_spec() {
        let m = parse_machine(TOY).unwrap();
        assert_eq!(m.name(), "toy spec box");
        assert_eq!(m.num_nodes(), 2);
        assert_eq!(m.num_cores(), 8);
        assert_eq!(m.clock_ghz(), 2.4);
        assert_eq!(m.caches().l2_size_mib, 1.0);
        assert_eq!(
            m.interconnect().direct_bandwidth(NodeId(0), NodeId(1)),
            Some(6.4)
        );
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let m = parse_machine("# nothing\n\npackages 2\nfull_mesh 1.0\n").unwrap();
        assert_eq!(m.num_nodes(), 2);
    }

    #[test]
    fn unknown_keys_are_rejected_with_line_numbers() {
        let err = parse_machine("packages 2\nfrobnicate 3\n").unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownKey {
                line: 2,
                key: "frobnicate".to_string()
            }
        );
    }

    #[test]
    fn bad_values_are_rejected() {
        let err = parse_machine("packages many\n").unwrap_err();
        assert!(matches!(err, SpecError::BadValue { line: 1, .. }));
    }

    #[test]
    fn malformed_links_are_rejected() {
        let err = parse_machine("packages 2\nlink 0 1\n").unwrap_err();
        assert!(matches!(err, SpecError::Malformed { line: 2, .. }));
    }

    #[test]
    fn invalid_machines_are_rejected() {
        let err = parse_machine("packages 2\nlink 0 9 1.0\n").unwrap_err();
        assert!(matches!(err, SpecError::Invalid(_)));
    }

    /// The error a spec gets when one line sets an impossible value.
    fn rejection(line: &str) -> SpecError {
        parse_machine(&format!("packages 2\nlink 0 1 6.4\n{line}\n")).unwrap_err()
    }

    #[test]
    fn clock_must_be_finite_and_positive() {
        for value in ["0", "-2.1", "nan", "inf"] {
            assert_eq!(
                rejection(&format!("clock_ghz {value}")),
                SpecError::Invalid(TopologyError::NotPositive("clock_ghz")),
                "clock_ghz {value}"
            );
        }
    }

    #[test]
    fn dram_bandwidth_must_be_finite_and_positive() {
        for value in ["0", "-12.8", "NaN", "infinity"] {
            assert_eq!(
                rejection(&format!("dram_bw_gbs {value}")),
                SpecError::Invalid(TopologyError::NotPositive("dram_bw_gbs")),
                "dram_bw_gbs {value}"
            );
        }
    }

    #[test]
    fn l2_size_must_be_finite_and_positive() {
        for value in ["0", "-0.5", "nan", "inf"] {
            assert_eq!(
                rejection(&format!("l2_mib {value}")),
                SpecError::Invalid(TopologyError::NotPositive("l2_mib")),
                "l2_mib {value}"
            );
        }
    }

    #[test]
    fn l3_size_must_be_finite_and_positive() {
        for value in ["0", "-16", "nan", "-inf"] {
            assert_eq!(
                rejection(&format!("l3_mib {value}")),
                SpecError::Invalid(TopologyError::NotPositive("l3_mib")),
                "l3_mib {value}"
            );
        }
    }

    #[test]
    fn link_bandwidths_must_be_finite_and_positive() {
        let expected = SpecError::Invalid(TopologyError::NotPositive("link bandwidth"));
        for value in ["0", "-3", "nan", "inf"] {
            assert_eq!(rejection(&format!("link 1 0 {value}")), expected, "link {value}");
            let mesh = parse_machine(&format!("packages 3\nfull_mesh {value}\n"));
            assert_eq!(mesh.unwrap_err(), expected, "full_mesh {value}");
        }
        assert_eq!(
            expected.to_string(),
            "invalid machine: link bandwidth must be a finite, positive number"
        );
    }

    #[test]
    fn spec_round_trips_into_the_placement_pipeline() {
        // A parsed machine behaves like a built-in one.
        let m = parse_machine(TOY).unwrap();
        assert_eq!(m.l2_capacity(), 2);
        assert_eq!(m.node_capacity(), 4);
    }
}
