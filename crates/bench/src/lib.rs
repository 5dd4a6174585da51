//! # apcache-bench
//!
//! Experiment harness regenerating every table and figure of the SIGMOD
//! 2001 evaluation. Each `benches/figXX_*.rs` target is a plain `main`
//! (`harness = false`) that runs the corresponding experiment module and
//! prints the series the paper plots, annotated with the paper's expected
//! *shape* (who wins, by roughly what factor, where crossovers fall) —
//! absolute numbers are not expected to match the authors' 2001 testbed.
//!
//! Run every figure with `cargo bench -p apcache-bench`, or a single one
//! with e.g. `cargo bench -p apcache-bench --bench fig06_adaptivity`.
//! Serving-stack performance is not measured here: `benchmark/run.sh`
//! at the repository root is the one instrument for that.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod table;

pub use table::Table;
