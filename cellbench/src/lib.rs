//! Campaign-cell benchmark for the difi workspace.
//!
//! The untraced run ([`untraced`]) drives the real `campaign` binary and
//! reports the end-to-end metrics; the traced run ([`traced`]) replicates
//! the same processes in-process through a span-recording adapter
//! ([`adapter`]) and reports the per-layer metrics. See `README.md` in
//! this package for the metric definitions and workload rationale.

pub mod adapter;
pub mod affinity;
pub mod cell;
pub mod check;
pub mod derive;
pub mod host;
pub mod report;
pub mod rusage;
pub mod stats;
pub mod traced;
pub mod untraced;
pub mod workloads;
