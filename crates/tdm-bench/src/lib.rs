//! # tdm-bench — the reproduction harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5, Appendix A)
//! from the simulated kernels:
//!
//! * Table 1 — candidate-count growth ([`tables::table1`]);
//! * Table 2 — card architectural features ([`tables::table2`]);
//! * Figures 6a–d — impact of problem size (level) per algorithm on the GTX 280;
//! * Figures 7a–c — impact of algorithm per level on the GTX 280;
//! * Figures 8a–b — impact of card (shader clock vs. memory bandwidth);
//! * Figures 9a–l — the full appendix grid;
//! * the conclusion's best-configuration table and the eight characterizations.
//!
//! Everything is driven by one [`grid::Grid`] of simulated measurements; the
//! `reproduce` binary writes CSVs plus ASCII previews, and the criterion benches
//! measure representative cells. [`counting_bench`] additionally measures the
//! *real* CPU throughput of every counting backend (the engine's perf
//! trajectory, `BENCH_counting.json`), and [`serve_bench`] measures the
//! serving layer (`BENCH_serve.json`): incremental streaming appends against
//! rescans, and the `tdm-server` socket path at 1/4/16 clients against an
//! in-process client. The
//! simulated-GPU serving trajectory ([`gpu_bench`], `BENCH_gpu.json`) models
//! what the persistent device pipeline buys: fused advances vs per-level
//! launches, and the cost model's per-level routing.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod characterize;
pub mod chart;
pub mod counting_bench;
pub mod extensions;
pub mod figures;
pub mod gpu_bench;
pub mod grid;
pub mod serve_bench;
pub mod tables;

pub use grid::{Grid, GridCell, GridConfig};
