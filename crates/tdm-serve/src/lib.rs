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
//!   handle and a `MinerConfig`) from any number of client threads and
//!   serves each a full [`MiningResponse`], in arrival order;
//! * **one executor** — [`MiningService::submit`] runs every request on the
//!   engine's cost-dispatched executor (`tdm_core::AutoBackend`);
//!   [`MiningService::submit_with`] runs any other `Executor` (a paper
//!   baseline, the simulated GPU pipeline, a test spy);
//! * **one request, one configuration** — each request takes one place at
//!   the gate and plans one session for its own `MinerConfig`; the service
//!   never holds a request back to fuse it with others;
//! * **one shared pool** — every request's counting scans multiplex over a
//!   single machine-sized [`Pool`](tdm_mapreduce::pool::Pool) (sessions are
//!   built with `MiningSessionBuilder::with_pool`), so 16 clients use the
//!   same threads one client would, instead of 16 × workers;
//! * **fair admission** ([`admission`]) — a configurable in-flight limit with
//!   strict FIFO order and a bounded waiting room that rejects overload
//!   explicitly ([`ServeError::Overloaded`]);
//! * **one index cache** ([`cache`]) — one entry per database, keyed by
//!   database content hash alone and verified against the full database
//!   content before reuse: the database handle and its `OccurrenceIndex`
//!   (per-symbol counts, the σ×σ pair table, lazily built position lists).
//!   None of it depends on a configuration, so a repeat or a new α hits.
//!   Each request plans its own session over the entry
//!   (`MiningSessionBuilder::with_index`), and nothing is taken out of the
//!   cache while it mines: concurrent requests on one database count against
//!   one index, and a level the index answers (level 1, a distinct level 2)
//!   makes no stream pass on a hit — the work Mayura-style co-mining would
//!   share across concurrent requests is already shared across all of them;
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
//! assert_eq!(warm.stats.cache, CacheOutcome::Hit);   // shared the cached index
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
    TenantSnapshot, MAX_STREAM_LEN,
};
pub use service::{
    BackendChoice, CacheOutcome, MiningRequest, MiningResponse, MiningService, Priority,
    ResponseStats, ServeError, ServiceConfig, ServiceStats,
};
