//! The CloudMedia benchmark: four batch-simulation workloads measured
//! end to end (`perfbench bench`), plus a traced run that reads the
//! simulator's telemetry registry for per-layer figures. See
//! `README.md` beside this crate for the workloads, the metrics and the
//! map from each layer metric to the end-to-end metric it should move.

pub mod check;
pub mod child;
pub mod host;
pub mod layers;
pub mod stats;
pub mod workloads;
