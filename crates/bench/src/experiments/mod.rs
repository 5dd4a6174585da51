//! Experiment implementations, one module per paper figure/table group.
//!
//! Every public `run()` function returns (or prints) [`crate::Table`]s
//! containing the series the paper plots, with the expected shape recorded
//! in the notes. See `DESIGN.md` §5 for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured results.

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
pub mod pipelined;
pub mod push;
pub mod reactor;
pub mod runtime;
pub mod sensitivity;
pub mod sharded;
pub mod spool;
pub mod telemetry;
