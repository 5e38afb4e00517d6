//! # tdm-serve — the multi-tenant serving layer
//!
//! The paper characterizes the throughput of *one* mining run; a production
//! service faces many concurrent runs from many tenants. Later GPU mining
//! systems spell out what that takes: Everest wraps its kernels in a
//! scheduling/serving layer, and Mayura shares work across similar queries
//! against the same data. This crate is that layer for the CPU engine of
//! this reproduction:
//!
//! * [`MiningService`] — accepts [`MiningRequest`]s (an `Arc<EventDb>`
//!   handle, a `MinerConfig`, a [`Priority`]) from any number of client
//!   threads and serves each a full [`MiningResponse`];
//! * **one executor** — [`MiningService::submit`] runs every request on the
//!   engine's cost-dispatched executor (`tdm_core::AutoBackend`);
//!   [`MiningService::submit_with`] runs any other `Executor` (a paper
//!   baseline, the simulated GPU pipeline, a test spy);
//! * **explicit batches** — [`MiningService::submit_batch`] serves requests
//!   over one database that an in-process caller hands in together: one
//!   place at the gate, one parked session, one union scan per level
//!   (`MiningSession::co_mine`). The service never holds a request back to
//!   fuse it with others;
//! * **one shared pool** — every request's counting scans multiplex over a
//!   single machine-sized [`Pool`](tdm_mapreduce::pool::Pool) (sessions are
//!   built with `MiningSessionBuilder::with_pool`), so 16 clients use the
//!   same threads one client would, instead of 16 × workers;
//! * **fair admission** ([`admission`]) — a configurable in-flight limit with
//!   strict FIFO order per priority class and a bounded waiting room that
//!   rejects overload explicitly ([`ServeError::Overloaded`]);
//! * **one session cache** ([`cache`]) — parked `MiningSession<'static>`s
//!   keyed by database content hash alone and verified against the full
//!   database content before reuse. A parked session is a per-database plan:
//!   any request re-targets it to its own config, so a repeat or a new α
//!   hits. A hit skips session planning (stream snapshot, shard bounds,
//!   buffer allocation) and re-enters the level loop with the compiled
//!   candidate buffers already allocated and warm — levels recompile in
//!   place, so the compiled storage keeps the same address across requests.
//!   The parked session also keeps its occurrence index, whose σ×σ pair
//!   table answers every later level 2 on that database without a stream
//!   pass: the work Mayura-style co-mining would share across concurrent
//!   requests is already shared across all of them;
//! * **streaming ingestion** ([`ingest`]) — per-tenant append buffers with
//!   count-or-age re-mine triggers and **fence** semantics: a sealed window
//!   is committed onto the tenant's epoch-versioned
//!   [`EventDb`](tdm_core::EventDb) and re-mined
//!   exactly once through [`MiningService::submit`], and appends during a
//!   re-mine land in the next window ([`StreamIngest`]).
//!
//! Results are **bit-identical** to a serial `Miner::mine` of the same
//! request, for any executor and any concurrency level — the
//! workspace test suite asserts this with 16 concurrent clients.
//!
//! ```
//! use std::sync::Arc;
//! use tdm_core::{Alphabet, EventDb, MinerConfig};
//! use tdm_serve::{CacheOutcome, MiningRequest, MiningService, ServiceConfig};
//!
//! let service = MiningService::new(ServiceConfig { workers: 2, ..Default::default() });
//! let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCA".repeat(60)).unwrap());
//! let request = MiningRequest::new(db, MinerConfig { alpha: 0.02, ..Default::default() });
//!
//! let cold = service.submit(&request).unwrap();
//! let warm = service.submit(&request).unwrap();
//! assert_eq!(cold.stats.cache, CacheOutcome::Miss);
//! assert_eq!(warm.stats.cache, CacheOutcome::Hit);   // reused parked session
//! assert_eq!(cold.result, warm.result);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod ingest;
pub mod service;

pub use admission::{AdmissionQueue, Overloaded, Permit};
pub use cache::CacheStats;
pub use ingest::{
    AppendOutcome, FlushReport, IngestError, IngestStats, IngestTriggers, StreamIngest,
    TenantSnapshot,
};
pub use service::{
    BackendChoice, CacheOutcome, MiningRequest, MiningResponse, MiningService, ResponseStats,
    ServeError, ServiceConfig, ServiceStats,
};

// The scheduling vocabulary clients need when building requests.
pub use tdm_mapreduce::pool::Priority;
