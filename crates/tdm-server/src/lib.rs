//! # tdm-server — the network front-end
//!
//! The serving layer (`tdm-serve`) made the mining engine concurrent and
//! multi-tenant *in process*; this crate puts it behind a socket. A
//! [`Server`] is a std-only TCP front-end (no async runtime — the workspace
//! is offline and shim-based) speaking a length-prefixed JSON protocol
//! ([`wire`]): an acceptor thread plus a bounded pool of connection-handler
//! threads, all funneling work into one shared
//! [`MiningService`](tdm_serve::MiningService).
//!
//! What the socket path adds over in-process serving:
//!
//! * **tenants** ([`tenant`]) — API keys, token-bucket rate limits, and
//!   per-tenant in-flight quotas (a counter that refuses at the quota
//!   instead of queueing, so one tenant's backlog cannot starve another's);
//! * **deadlines** — a request's `deadline_ms` becomes a
//!   [`CancelToken`](tdm_core::CancelToken) checked *inside the level
//!   loop*: an abandoned scan stops at the next level boundary, releases
//!   its in-flight slot, and the client gets a typed `"deadline"` error;
//! * **observability** — a `"stats"` request surfaces the service, cache,
//!   ingest, and connection counters as wire-readable JSON;
//! * **streaming** — `"register"`/`"ingest"` requests route appends into
//!   [`StreamIngest`](tdm_serve::StreamIngest), so the trigger/fence
//!   re-mining path is reachable over the wire;
//! * **backpressure you can act on** — overload rejections carry the
//!   observed queue depth and a [`retry_after_hint`]
//!   so closed-loop clients back off proportionally.
//!
//! Everything the in-process path guarantees still holds over the wire:
//! responses are bit-identical to a serial `Miner::mine` of the same
//! request, and every request on a database, whatever its connection or α,
//! counts against that database's one cached occurrence index, level-2 pair
//! table included. The workspace `tests/server_e2e.rs` suite proves each of
//! those claims against a real loopback listener.
//!
//! ```no_run
//! use tdm_server::{Client, Server, ServerConfig, TenantConfig};
//! use tdm_server::client::{mine_request, stats_request};
//!
//! let server = Server::bind(ServerConfig {
//!     tenants: vec![TenantConfig::new("acme", "secret")],
//!     ..Default::default()
//! }).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.call(&mine_request(
//!     "acme", "secret", &"ABCA".repeat(50), 0.05, Some(2), None, None, None,
//! )).unwrap();
//! assert_eq!(reply.get("type").unwrap().as_str(), Some("mine_result"));
//!
//! let stats = client.call(&stats_request("acme", "secret")).unwrap();
//! assert_eq!(stats.get("type").unwrap().as_str(), Some("stats"));
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod json;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{Client, ClientError};
pub use json::{JsonError, Value};
pub use server::{ExecutorFactory, Server, ServerConfig, ServerCounters};
pub use tenant::{Denial, TenantConfig, TenantRegistry};
pub use wire::{retry_after_hint, FrameError, MAX_FRAME};
