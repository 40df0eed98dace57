//! The xui benchmark: drives each layer's public functions from the
//! benchmark's own files with the registry presets' parameters, checks
//! every call's output, and reports end-to-end metrics (untraced) or
//! per-layer metrics (from host-time spans around every layer call).
//! See `README.md` beside this crate for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod check;
pub mod ctx;
pub mod difftest;
pub mod laps;
pub mod metrics;
pub mod models;
pub mod pipeline;
pub mod preset;
pub mod report;
pub mod runner;
pub mod stats;
pub mod trace;
