//! # tdm-mapreduce — the worker pools under the CPU executors
//!
//! The paper frames its mining kernels as MapReduce computations (§2.2, §3.3.1):
//! *map* emits the appearance count of one episode, *reduce* is either the
//! identity (thread-level parallelism) or a sum over the partial counts of the
//! threads that cooperated on one episode (block-level parallelism). In this
//! workspace that shape lives in two executors of `tdm-baselines`:
//! `MapReduceBackend` (map: scan one candidate chunk; reduce: concatenate the
//! chunk counts) and `ShardedScanBackend` (map: scan one stream segment;
//! reduce: sum, then the Fig. 5 boundary fix).
//!
//! This crate holds the execution substrate they run on, in the [`pool`]
//! module: a scoped parallel map for one-shot jobs, and the persistent,
//! shareable, priority-aware [`pool::Pool`] that mining sessions — and the
//! whole `tdm-serve` multi-tenant service — dispatch their counting scans to.
//!
//! ```
//! use tdm_mapreduce::pool::map_items;
//!
//! // Map on scoped threads that borrow their input, then reduce by summing.
//! let segments: Vec<&[u8]> = b"ABCABCAB".chunks(3).collect();
//! let partial = map_items(&segments, 2, |s| s.iter().filter(|&&c| c == b'A').count());
//! assert_eq!(partial.iter().sum::<usize>(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pool;
