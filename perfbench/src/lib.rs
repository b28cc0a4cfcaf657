//! The repository benchmark: the `table2`, `sweep` and `diagnose`
//! workloads, timed from outside the program through the crates'
//! public calls. See `README.md` beside this package for the workloads,
//! the metrics and how to read them.

pub mod check;
pub mod metrics;
pub mod passes;
pub mod plan;
pub mod spans;
