//! # tdm-gpu — the paper's four parallel mining kernels, on `gpu-sim`
//!
//! The paper implements frequent-episode counting as four CUDA kernels
//! (§3.3, Figure 4), the cartesian product of {thread-level, block-level}
//! parallelism × {unbuffered texture, shared-memory buffered} data access:
//!
//! | Algorithm | Parallelism | Data access | Module |
//! |-----------|-------------|-------------|--------|
//! | 1 | one thread = one episode | texture | [`algo1`] |
//! | 2 | one thread = one episode | shared-memory buffer epochs | [`algo2`] |
//! | 3 | one block = one episode, threads split the database | texture | [`algo3`] |
//! | 4 | one block = one episode | buffered, fixed per-thread slices | [`algo4`] |
//!
//! Each kernel here is executed **functionally** over real data — the FSM
//! transitions, boundary continuations, and reductions actually run, and the
//! counts are cross-checked against `tdm-core`'s sequential ground truth — while
//! a warp-sampled lockstep pass ([`lockstep`]) measures divergence-adjusted
//! instruction costs. From those measurements each kernel builds the
//! [`gpu_sim::BlockProfile`] that the timing engine schedules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algo1;
pub mod algo2;
pub mod algo3;
pub mod algo4;
pub mod device;
pub mod launch;
pub mod lockstep;
pub mod pipeline;
pub mod validate;

pub use device::{
    DevicePipeline, DispatchClass, DispatchDecision, GpuDispatchModel, GpuPipelineBackend,
    StreamResidency, UnionLaunch,
};

use gpu_sim::{CostModel, DeviceConfig, KernelSpec, LaunchConfig, SimError, SimReport};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use tdm_core::engine::CompiledCandidates;
use tdm_core::session::{BackendError, CountRequest, Counts, Executor};
use tdm_core::{Episode, EventDb};

/// The four kernels of the paper (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Algorithm {
    /// Algorithm 1: thread-level parallelism, texture memory.
    ThreadTexture,
    /// Algorithm 2: thread-level parallelism, shared-memory buffering.
    ThreadBuffered,
    /// Algorithm 3: block-level parallelism, texture memory.
    BlockTexture,
    /// Algorithm 4: block-level parallelism, shared-memory buffering.
    BlockBuffered,
}

impl Algorithm {
    /// All four, in paper order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::ThreadTexture,
        Algorithm::ThreadBuffered,
        Algorithm::BlockTexture,
        Algorithm::BlockBuffered,
    ];

    /// The paper's numbering (1–4).
    pub fn number(self) -> u8 {
        match self {
            Algorithm::ThreadTexture => 1,
            Algorithm::ThreadBuffered => 2,
            Algorithm::BlockTexture => 3,
            Algorithm::BlockBuffered => 4,
        }
    }

    /// True for the block-level kernels (one block per episode).
    pub fn is_block_level(self) -> bool {
        matches!(self, Algorithm::BlockTexture | Algorithm::BlockBuffered)
    }

    /// True for the buffered kernels.
    pub fn is_buffered(self) -> bool {
        matches!(self, Algorithm::ThreadBuffered | Algorithm::BlockBuffered)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Algorithm{}", self.number())
    }
}

/// Knobs of the simulation-side execution (not of the mining semantics).
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Warps sampled exactly per kernel for divergence measurement (higher =
    /// tighter estimates, slower). `exact` overrides.
    pub sample_warps: usize,
    /// Blocks sampled per block-level kernel for span statistics.
    pub sample_blocks: usize,
    /// Execute every warp of every block exactly (small inputs / tests).
    pub exact: bool,
    /// Shared-memory buffer bytes per block for the buffered kernels
    /// (paper §3.3: "buffers portions of the database in shared memory").
    pub buffer_bytes: u32,
    /// Registers per thread assumed for occupancy.
    pub registers_per_thread: u32,
    /// Memory-level parallelism of the cooperative buffer loads (outstanding
    /// loads per thread). A naive copy loop is 1: each iteration's shared-memory
    /// store depends on its global load and recycles the same register, so the
    /// per-thread load chain is fully serialized — which is exactly why the
    /// paper's buffered kernels improve as threads are added (each thread loads
    /// `n / tpb` bytes; Characterization 2).
    pub load_mlp: u32,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            sample_warps: 4,
            sample_blocks: 3,
            exact: false,
            buffer_bytes: 4096,
            registers_per_thread: 16,
            load_mlp: 1,
        }
    }
}

/// Result of one kernel run: real counts plus the simulated timing report.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Which kernel ran.
    pub algo: Algorithm,
    /// Grid geometry used.
    pub launch: LaunchConfig,
    /// Appearance count per candidate episode (same order as the input).
    pub counts: Vec<u64>,
    /// Timing and counters from the simulator.
    pub report: SimReport,
    /// The kernel spec handed to the engine (for inspection/serialization).
    pub spec: KernelSpec,
}

/// Per-kernel instruction/divergence/span measurements (cached per
/// `(algorithm, threads-per-block)` inside [`MiningProblem`]).
#[derive(Debug, Clone)]
pub(crate) struct ProfileStats {
    /// Mean divergence-adjusted issue instructions per warp (whole scan).
    pub mean_warp_issue: f64,
    /// Maximum sampled per-warp issue instructions (critical warp).
    pub max_warp_issue: f64,
    /// Mean boundary-continuation ("span") window in characters, per boundary
    /// (block-level kernels only).
    pub mean_span_window: f64,
    /// Fraction of boundaries with a live partial match (block-level only).
    pub live_boundary_fraction: f64,
}

/// A fixed (database, candidate set) pair with the candidate set in the flat
/// CSR layout of [`CompiledCandidates`], memoized ground-truth counts, and
/// per-kernel profile measurements. Kernels take their launch geometry *and*
/// their sampling inputs from the compiled layout — no `&[Episode]` anywhere
/// on the execute side.
///
/// The reproduction harness holds one of these per episode level and sweeps
/// cards and block sizes against it cheaply — concurrently, since all
/// memoization is behind interior mutability and every kernel run takes
/// `&self`. In the plan/execute API the session owns the compiled set and the
/// problem merely **borrows** it ([`MiningProblem::from_compiled`]), so the
/// GPU backend never recompiles per level.
pub struct MiningProblem<'a> {
    db: &'a EventDb,
    compiled: Cow<'a, CompiledCandidates>,
    counts: OnceLock<Vec<u64>>,
    profile_cache: Mutex<HashMap<(Algorithm, u32), ProfileStats>>,
}

impl<'a> MiningProblem<'a> {
    /// Creates the problem from raw episodes, compiling the candidate set
    /// (counts and profile sampling stay lazy). Prefer
    /// [`MiningProblem::from_compiled`] when a compiled set already exists.
    pub fn new(db: &'a EventDb, episodes: &'a [Episode]) -> Self {
        Self::with_compiled(
            db,
            Cow::Owned(CompiledCandidates::compile(db.alphabet().len(), episodes)),
        )
    }

    /// Creates the problem over an existing compiled candidate set, borrowing
    /// it — the zero-recompile path the session-driven [`GpuBackend`] uses.
    pub fn from_compiled(db: &'a EventDb, compiled: &'a CompiledCandidates) -> Self {
        Self::with_compiled(db, Cow::Borrowed(compiled))
    }

    fn with_compiled(db: &'a EventDb, compiled: Cow<'a, CompiledCandidates>) -> Self {
        MiningProblem {
            db,
            compiled,
            counts: OnceLock::new(),
            profile_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The database.
    pub fn db(&self) -> &EventDb {
        self.db
    }

    /// The compiled (CSR) form of the candidate set the kernels scan.
    pub fn compiled(&self) -> &CompiledCandidates {
        &self.compiled
    }

    /// Ground-truth appearance counts, computed once on one thread by the
    /// engine's cost-dispatched counter
    /// ([`CompiledCandidates::count_best`]: vertical occurrence lists,
    /// word-packed Shift-And, or the active-set scan — whichever the model
    /// picks) and memoized.
    pub fn counts(&self) -> &[u64] {
        self.counts
            .get_or_init(|| self.compiled.count_best(self.db.symbols()))
    }

    /// Runs one kernel configuration. Takes `&self`: independent
    /// configurations of the same problem may run concurrently.
    ///
    /// # Errors
    /// Propagates [`SimError`] from launch validation (e.g. block too large).
    pub fn run(
        &self,
        algo: Algorithm,
        threads_per_block: u32,
        dev: &DeviceConfig,
        cost: &CostModel,
        opts: &SimOptions,
    ) -> Result<KernelRun, SimError> {
        match algo {
            Algorithm::ThreadTexture => algo1::run(self, threads_per_block, dev, cost, opts),
            Algorithm::ThreadBuffered => algo2::run(self, threads_per_block, dev, cost, opts),
            Algorithm::BlockTexture => algo3::run(self, threads_per_block, dev, cost, opts),
            Algorithm::BlockBuffered => algo4::run(self, threads_per_block, dev, cost, opts),
        }
    }

    /// Locks the profile cache, recovering from poisoning: a panicking kernel
    /// launch on another thread must not wedge every later request through the
    /// same problem. The map only ever holds complete, idempotent measurements
    /// (inserted after `compute` returns), so the poisoned guard's data is
    /// safe to keep using.
    fn profile_lock(&self) -> std::sync::MutexGuard<'_, HashMap<(Algorithm, u32), ProfileStats>> {
        self.profile_cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    pub(crate) fn cached_stats(
        &self,
        key: (Algorithm, u32),
        compute: impl FnOnce(&EventDb, &CompiledCandidates) -> ProfileStats,
    ) -> ProfileStats {
        if let Some(s) = self.profile_lock().get(&key) {
            return s.clone();
        }
        // Computed outside the lock: sampling is deterministic and idempotent,
        // so a concurrent duplicate costs time, never correctness.
        let s = compute(self.db, &self.compiled);
        self.profile_lock().insert(key, s.clone());
        s
    }
}

/// An [`Executor`] that runs one of the simulated GPU kernels for the
/// counting step of the level-wise miner, so the full mining loop can execute
/// "on the GPU" and be compared against CPU baselines. Borrows the request's
/// compiled candidate set end-to-end (geometry + sampling) — no per-level
/// recompile.
pub struct GpuBackend {
    /// Which kernel to use.
    pub algo: Algorithm,
    /// Block size.
    pub threads_per_block: u32,
    /// Simulated card.
    pub device: DeviceConfig,
    /// Cost model.
    pub cost: CostModel,
    /// Execution options.
    pub opts: SimOptions,
    /// Accumulated simulated kernel milliseconds across counting calls.
    pub simulated_ms: f64,
}

impl GpuBackend {
    /// Backend for a kernel/card/block-size choice with default options.
    pub fn new(algo: Algorithm, threads_per_block: u32, device: DeviceConfig) -> Self {
        GpuBackend {
            algo,
            threads_per_block,
            device,
            cost: CostModel::default(),
            opts: SimOptions::default(),
            simulated_ms: 0.0,
        }
    }
}

impl Executor for GpuBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let problem = MiningProblem::from_compiled(req.db(), req.compiled());
        let run = problem
            .run(
                self.algo,
                self.threads_per_block,
                &self.device,
                &self.cost,
                &self.opts,
            )
            .map_err(|e| BackendError::Launch(e.to_string()))?;
        self.simulated_ms += run.report.time_ms;
        Ok(run.counts)
    }

    fn name(&self) -> &str {
        match self.algo {
            Algorithm::ThreadTexture => "gpu-algorithm1",
            Algorithm::ThreadBuffered => "gpu-algorithm2",
            Algorithm::BlockTexture => "gpu-algorithm3",
            Algorithm::BlockBuffered => "gpu-algorithm4",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_numbering_and_classes() {
        assert_eq!(Algorithm::ThreadTexture.number(), 1);
        assert_eq!(Algorithm::BlockBuffered.number(), 4);
        assert!(!Algorithm::ThreadTexture.is_block_level());
        assert!(Algorithm::BlockTexture.is_block_level());
        assert!(Algorithm::ThreadBuffered.is_buffered());
        assert!(!Algorithm::BlockTexture.is_buffered());
        assert_eq!(Algorithm::ALL.len(), 4);
        assert_eq!(format!("{}", Algorithm::BlockTexture), "Algorithm3");
    }

    #[test]
    fn default_options() {
        let o = SimOptions::default();
        assert_eq!(o.buffer_bytes, 4096);
        assert!(!o.exact);
        assert!(o.sample_warps >= 1);
    }

    #[test]
    fn poisoned_profile_cache_recovers() {
        let symbols: Vec<u8> = (0..4000u32)
            .map(|i| ((i.wrapping_mul(2654435761) >> 9) % 26) as u8)
            .collect();
        let db = EventDb::new(tdm_core::Alphabet::latin26(), symbols).unwrap();
        let episodes = tdm_core::candidate::permutations(db.alphabet(), 1);
        let problem = MiningProblem::new(&db, &episodes);

        // Poison the cache: a thread panics (like a failing profiling pass)
        // while holding the guard.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = problem.profile_cache.lock().unwrap();
                panic!("kernel profiling panicked while holding the cache");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(problem.profile_cache.is_poisoned());

        // Later requests through the same problem must still run — and still
        // memoize — instead of cascading the panic.
        let run = problem
            .run(
                Algorithm::BlockTexture,
                64,
                &DeviceConfig::geforce_gtx_280(),
                &CostModel::default(),
                &SimOptions::default(),
            )
            .expect("poisoned cache must not fail later runs");
        assert_eq!(run.counts, problem.counts());
        assert!(!problem.profile_lock().is_empty());
    }
}
