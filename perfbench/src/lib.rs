//! The benchmark of record for `rtx`: host throughput of four workloads,
//! with a per-layer split traced from outside the library. See
//! `README.md` in this directory for how to run it and what it reports.

pub mod bench;
mod calib;
pub mod metrics;
mod spans;
pub mod workloads;
