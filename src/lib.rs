//! # temporal-mining — reproduction of *Multi-Dimensional Characterization of
//! Temporal Data Mining on Graphics Processors* (IPPS 2009)
//!
//! This facade crate re-exports the whole workspace so applications (and the
//! `examples/`) can depend on a single crate:
//!
//! * [`core`] (`tdm-core`) — frequent episode mining: event databases, the
//!   paper's Figure-3 FSM, segmented counting with span handling, candidate
//!   generation, the level-wise miner, and the episode-expiry extension;
//! * [`sim`] (`gpu-sim`) — a CUDA-like SIMT performance simulator with the
//!   paper's three cards (Table 2) as presets;
//! * [`gpu`] (`tdm-gpu`) — the paper's four parallel counting kernels
//!   (thread-/block-level × unbuffered/buffered) running on the simulator;
//! * [`mapreduce`] (`tdm-mapreduce`) — the worker pools the CPU executors run
//!   on; the paper's MapReduce shape (§2.2, Fig. 2) is the [`baselines`]
//!   `MapReduceBackend` (map a candidate chunk, concatenate) and
//!   `ShardedScanBackend` (map a stream segment, sum, Fig. 5 boundary fix);
//! * [`baselines`] (`tdm-baselines`) — GMiner-class serial and parallel CPU
//!   counting backends;
//! * [`workloads`] (`tdm-workloads`) — the paper's 393,019-letter database plus
//!   spike-train and market-basket generators;
//! * [`serve`] (`tdm-serve`) — the multi-tenant serving layer: concurrent
//!   mining sessions over one shared worker pool, with an LRU cache of one
//!   shared occurrence index per database (its level-2 pair table included)
//!   and fair (aging) admission;
//! * [`server`] (`tdm-server`) — the TCP front-end over that layer: a
//!   length-prefixed JSON protocol with per-tenant API keys, token-bucket
//!   rate limits, in-flight quotas, and level-loop deadline cancellation.
//!
//! ## Quickstart
//!
//! ```
//! use temporal_mining::prelude::*;
//!
//! // The paper's workload, scaled down for a doctest.
//! let db = temporal_mining::workloads::paper_database_scaled(0.01);
//!
//! // Plan once: a MiningSession owns the compiled candidate layout, the
//! // database shard bounds, and a persistent worker pool across levels.
//! let mut session = MiningSession::builder(&db)
//!     .config(MinerConfig { alpha: 0.0005, max_level: Some(2), ..Default::default() })
//!     .build();
//!
//! // Execute many times: every backend is an Executor over the same
//! // borrowed CountRequest — here the CPU active-set counter…
//! let cpu = session.mine(&mut SequentialBackend::default()).unwrap();
//!
//! // …and the simulated GPU kernel of the paper's Algorithm 3 on a GeForce
//! // GTX 280 — identical results, plus a time model. Each run compiles once
//! // per level, in place, into the session's reused buffers; backends never
//! // recompile or clone anything themselves.
//! let mut gpu = GpuBackend::new(Algorithm::BlockTexture, 64, DeviceConfig::geforce_gtx_280());
//! let gpu_result = session.mine(&mut gpu).unwrap();
//! assert_eq!(cpu, gpu_result);
//! assert!(gpu.simulated_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gpu_sim as sim;
pub use tdm_baselines as baselines;
pub use tdm_core as core;
pub use tdm_gpu as gpu;
pub use tdm_mapreduce as mapreduce;
pub use tdm_serve as serve;
pub use tdm_server as server;
pub use tdm_workloads as workloads;

/// The most common imports, for `use temporal_mining::prelude::*;`.
pub mod prelude {
    pub use gpu_sim::{CostModel, DeviceConfig, SimReport};
    pub use tdm_baselines::{MapReduceBackend, SerialScanBackend, ShardedScanBackend};
    pub use tdm_core::StreamingSession;
    pub use tdm_core::{
        Alphabet, AutoBackend, BackendError, BitmaskNfa, CompiledCandidates, CountRequest,
        CountScratch, CountStrategy, Counts, Episode, EventDb, Executor, MineError, Miner,
        MinerConfig, MiningResult, MiningSession, OccurrenceIndex, SequentialBackend,
        StrategyCosts, Symbol,
    };
    pub use tdm_gpu::{
        Algorithm, DevicePipeline, GpuBackend, GpuPipelineBackend, KernelRun, MiningProblem,
        SimOptions, StreamResidency,
    };
    pub use tdm_mapreduce::pool::Pool;
    pub use tdm_serve::{
        AppendOutcome, BackendChoice, IngestTriggers, MiningRequest, MiningResponse, MiningService,
        ServeError, ServiceConfig, StreamIngest,
    };
}
