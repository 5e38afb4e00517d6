//! # gpu-sim — a CUDA-like SIMT performance simulator
//!
//! This crate is the hardware substrate for the reproduction of *"Multi-Dimensional
//! Characterization of Temporal Data Mining on Graphics Processors"* (IPPS 2009).
//! The paper ran on three NVIDIA cards (GeForce 8800 GTS 512, 9800 GX2, GTX 280);
//! no GPU is available here, so we model the architectural mechanisms that the
//! paper's eight characterizations hinge on:
//!
//! * **SIMT execution** — warps of 32 threads issue one instruction per 4 cycles
//!   per SM; divergent branches serialize the union of taken paths
//!   ([`warp::LockstepRecorder`]);
//! * **occupancy** — active blocks per SM limited by block/thread/warp/register/
//!   shared-memory ceilings (paper Table 2; [`occupancy()`]);
//! * **texture cache** — per-SM cache with spatial-locality streaming reuse and a
//!   thrash regime when concurrent streams exceed capacity ([`texcache`]);
//! * **shared memory** — low latency, 16-bank conflict serialization ([`smem`]);
//! * **global memory** — coalesced transactions, long latency, per-card bandwidth
//!   with kernel-wide arbitration ([`engine`]);
//! * **latency hiding** — a resident set's issue work overlaps memory latency;
//!   kernels with few warps are latency-bound ([`engine`]).
//!
//! Kernels are described to the simulator as per-block phase profiles
//! ([`kernel::BlockProfile`]) whose instruction and memory figures come from
//! *functional execution* of the real algorithm over real data (exactly for small
//! runs, warp-sampled for large ones — the mining kernels in the `tdm-gpu` crate
//! show the pattern). The timing engine then schedules blocks in occupancy-limited
//! waves and computes, per SM and wave, `max(issue, critical-path, bandwidth)`
//! time — a standard interval/roofline hybrid that reproduces who-wins orderings
//! without cycle-by-cycle simulation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
pub mod engine;
pub mod kernel;
pub mod microbench;
pub mod occupancy;
pub mod report;
pub mod smem;
pub mod texcache;
pub mod warp;

pub use config::{ComputeCapability, DeviceConfig};
pub use cost::CostModel;
pub use engine::{simulate, simulate_resident};
pub use kernel::{BlockProfile, KernelSpec, LaunchConfig, MemKind, MemTraffic, Phase};
pub use occupancy::{occupancy, KernelResources, Occupancy, OccupancyLimiter};
pub use report::{BoundKind, SimCounters, SimReport};

/// Errors from kernel validation and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// threads-per-block exceeded the device limit.
    BlockTooLarge {
        /// Requested threads per block.
        requested: u32,
        /// Device maximum.
        max: u32,
    },
    /// The launch had zero blocks or zero threads.
    EmptyLaunch,
    /// Per-block resources exceed what a single SM offers (kernel can never run).
    ResourcesExceedSm {
        /// Human-readable description of the exhausted resource.
        what: &'static str,
    },
    /// A resident pipeline was advanced with a plan compiled against different
    /// device state (stale or foreign stream/candidate buffers). The pipeline
    /// must be rebuilt before it can serve the plan.
    StalePlan {
        /// Fingerprint of the state the pipeline holds resident.
        expected: u64,
        /// Fingerprint of the state the plan was compiled against.
        got: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BlockTooLarge { requested, max } => {
                write!(
                    f,
                    "block of {requested} threads exceeds device maximum {max}"
                )
            }
            SimError::EmptyLaunch => write!(f, "kernel launch needs at least one block and thread"),
            SimError::ResourcesExceedSm { what } => {
                write!(
                    f,
                    "per-block {what} exceeds a single multiprocessor's capacity"
                )
            }
            SimError::StalePlan { expected, got } => {
                write!(
                    f,
                    "resident pipeline holds state {expected:#018x} but the plan \
                     was compiled against {got:#018x}; rebuild the pipeline"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}
