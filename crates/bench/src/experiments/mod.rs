//! Experiment implementations, one module per paper figure/table group.
//!
//! Every public `run()` function returns (or prints) [`crate::Table`]s
//! containing the series the paper plots, with the expected shape recorded
//! in the notes. The `[[bench]]` tables in this crate's `Cargo.toml` are
//! the experiment index: one target per experiment module.

pub mod ablations;
pub mod common;
pub mod fig02;
pub mod fig03;
pub mod fig04_05;
pub mod fig06;
pub mod fig07_09;
pub mod fig10_13;
pub mod fig14_15;
pub mod hierarchy;
pub mod max_queries;
pub mod sensitivity;
pub mod sharded;
