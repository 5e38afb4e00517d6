//! The multi-tenant mining service: request/response types, the error
//! taxonomy, and [`MiningService`] itself.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdm_core::miner::AutoBackend;
use tdm_core::session::{BackendError, CancelToken, Executor, MineError, MiningSession};
use tdm_core::stats::MiningResult;
use tdm_core::{EventDb, MinerConfig, OccurrenceIndex};
use tdm_mapreduce::pool::{default_workers, Pool, Priority};

use crate::admission::AdmissionQueue;
use crate::cache::{CacheStats, Entry, IndexCache};

/// Which counting executor serves a request: always the engine.
///
/// One variant remains because the service runs one executor: the
/// cost-dispatched engine serves every [`MiningService::submit`], every wire
/// `mine` and every ingest re-mine. The type keeps its name and its
/// `Default` so callers that spell the default keep compiling. The paper's
/// baselines (`tdm-baselines`' serial, active-set, sharded and MapReduce
/// scans) and the simulated GPU pipeline (`tdm_gpu::GpuPipelineBackend`) are
/// the reproduction, not the service: an in-process caller runs one through
/// [`MiningService::submit_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// The engine's strategy-dispatching executor
    /// ([`tdm_core::miner::AutoBackend`]): per level, the cost model picks
    /// vertical occurrence-list probes or word-packed bitmask scans, run in
    /// parallel over the shared pool.
    #[default]
    Auto,
}

/// One client request: a shared database handle, the mining configuration,
/// and a scheduling priority.
///
/// Reuse one `MiningRequest` value (or clones of it) across submissions: the
/// database content hash that keys the index cache is computed once per
/// request value and memoized, so steady-state resubmission costs no re-hash
/// of the stream — and same-handle cache verification is pointer equality.
#[derive(Debug, Clone)]
pub struct MiningRequest {
    db: Arc<EventDb>,
    config: MinerConfig,
    priority: Priority,
    /// Wall-clock budget from submission: past it, the level loop stops at
    /// the next level boundary with [`ServeError::Cancelled`].
    deadline: Option<Duration>,
    /// Caller-held cancellation handle (disconnect watchdogs, client aborts);
    /// combined with `deadline` into one token at submission.
    cancel: Option<CancelToken>,
    /// Memoized cache key (the hash of the full db content); computable once
    /// because the database is immutable after build. `OnceLock`'s `Clone`
    /// carries a computed key over to clones.
    key: std::sync::OnceLock<u64>,
}

impl MiningRequest {
    /// A request at normal priority.
    pub fn new(db: Arc<EventDb>, config: MinerConfig) -> Self {
        MiningRequest {
            db,
            config,
            priority: Priority::Normal,
            deadline: None,
            cancel: None,
            key: std::sync::OnceLock::new(),
        }
    }

    /// A no-op: [`BackendChoice`] has one variant, and every request runs
    /// it. Kept only so callers that spell the default keep compiling; it
    /// goes once the benchmark harness stops calling it.
    pub fn backend(self, _backend: BackendChoice) -> Self {
        self
    }

    /// Sets the admission priority: [`Priority::High`] requests overtake
    /// waiting normal ones at the admission gate, and their counting scans
    /// are submitted on the shared pool's high-priority job lane (overtaking
    /// queued scans of already-admitted normal requests).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets a wall-clock deadline, measured from submission: when it passes,
    /// the mining loop stops **at the next level boundary** (the level loop
    /// checks a [`CancelToken`] before every level's compile+scan), the
    /// in-flight slot is released, and the caller gets
    /// [`ServeError::Cancelled`] naming the level that never ran. A deadline
    /// expiring while the request is still queued at the admission gate
    /// cancels it on the level-1 check, immediately after admission.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a caller-held [`CancelToken`]: firing it (from a disconnect
    /// handler, a watchdog, another thread) cancels the request at the next
    /// level boundary exactly like an expired [`deadline`](Self::deadline).
    /// Both may be set; whichever fires first cancels.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The database this request mines.
    pub fn db(&self) -> &Arc<EventDb> {
        &self.db
    }

    /// The mining configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The index-cache key this request is served under: the content hash
    /// of its database ([`EventDb::content_hash`]), whatever its
    /// configuration. Computed on first call and memoized for the request's
    /// lifetime.
    pub fn key(&self) -> u64 {
        *self.key.get_or_init(|| self.db.content_hash())
    }
}

/// Whether the occurrence index a request counted against came from the
/// cache or was built for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The database's cached entry was verified and shared: the request
    /// counted against the index earlier requests built, pair table and
    /// position lists included, so no level it reads from them passes over
    /// the stream.
    Hit,
    /// No (verifiable) entry existed; the request built the database's index
    /// and cached it.
    Miss,
}

/// Per-request measurements returned alongside the mining result.
#[derive(Debug, Clone, Copy)]
pub struct ResponseStats {
    /// Cache hit or miss for the index this request counted against.
    pub cache: CacheOutcome,
    /// Time spent waiting at the admission gate, not mining.
    pub queue_wait: Duration,
    /// Time spent on the cache, planning and mining (the level loop),
    /// excluding queueing.
    pub mine_time: Duration,
    /// The index-cache key the request was served under: its database's
    /// content hash ([`MiningRequest::key`]).
    pub key: u64,
}

/// A completed request: the full mining result plus serving measurements.
#[derive(Debug, Clone)]
pub struct MiningResponse {
    /// The level-by-level mining result (identical to a serial
    /// `Miner::mine` run of the same request).
    pub result: MiningResult,
    /// Serving measurements (cache outcome, queue wait, mine time).
    pub stats: ResponseStats,
}

/// Why a request failed. The taxonomy separates *load* problems (retryable
/// after backoff) from *execution* problems (a bug or malformed backend).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The waiting room was full; retry after backoff. Carries the observed
    /// queue depth and the configured bound.
    Overloaded {
        /// Requests already waiting when this one was rejected.
        pending: usize,
        /// The configured `max_pending` bound.
        limit: usize,
    },
    /// The request's deadline passed (or its [`CancelToken`] fired) and the
    /// level loop stopped at a level boundary: `level` is the first level
    /// that never ran. Completed levels were discarded; the in-flight slot
    /// was released the moment the loop returned.
    Cancelled {
        /// The first level whose compile+scan was skipped.
        level: usize,
    },
    /// The counting backend failed inside the mining loop (level, backend
    /// name, and cause inside).
    Mine(MineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { pending, limit } => {
                write!(
                    f,
                    "service overloaded: {pending} requests pending (limit {limit})"
                )
            }
            ServeError::Cancelled { level } => {
                write!(
                    f,
                    "request cancelled before level {level} (deadline passed)"
                )
            }
            ServeError::Mine(e) => write!(f, "mining failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Mine(e) => Some(e),
            ServeError::Overloaded { .. } | ServeError::Cancelled { .. } => None,
        }
    }
}

/// Maps a level-loop failure onto the serving taxonomy: a
/// [`BackendError::Cancelled`] becomes the typed [`ServeError::Cancelled`]
/// (retryable by the client's own choice); everything else stays a
/// [`ServeError::Mine`] execution failure.
fn classify_mine_error(e: MineError) -> ServeError {
    if e.source == BackendError::Cancelled {
        ServeError::Cancelled { level: e.level }
    } else {
        ServeError::Mine(e)
    }
}

/// Service sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads in the one shared pool (0 = the machine's available
    /// parallelism).
    pub workers: usize,
    /// How many requests may mine concurrently (0 = one per pool worker).
    /// More than this wait at the admission gate in fair FIFO order.
    pub max_in_flight: usize,
    /// How many requests may wait at the gate before new arrivals are
    /// rejected with [`ServeError::Overloaded`] (0 = unbounded).
    pub max_pending: usize,
    /// Databases whose shared occurrence index the LRU cache keeps, one
    /// entry each (0 disables caching: every request builds its own index).
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            max_in_flight: 0,
            max_pending: 0,
            cache_capacity: 32,
        }
    }
}

/// Aggregate service counters since start (a [`MiningService::stats`]
/// snapshot; the cache counters live in the index cache itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed in the mining loop.
    pub failed: u64,
    /// Requests rejected at the admission gate.
    pub rejected: u64,
    /// Requests cancelled at a level boundary (deadline passed or a
    /// [`CancelToken`] fired) — counted separately from `failed`: the
    /// backend was healthy, the client just stopped waiting.
    pub cancelled: u64,
    /// Index-cache counters (hits, misses, evictions, collisions): one
    /// lookup per admitted request.
    pub cache: CacheStats,
}

/// The request counters the service actually stores, bumped without a lock
/// (the cache keeps its own counters; [`MiningService::stats`] joins the two
/// into a [`ServiceStats`]).
#[derive(Debug, Default)]
struct RequestCounters {
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
}

/// Adds `n` to a service or ingest counter. Counters are independent
/// tallies, so relaxed ordering suffices.
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// A multi-tenant mining service: many concurrent clients, one shared worker
/// pool, an LRU cache of one occurrence index per database, and fair
/// admission.
///
/// Clients call [`MiningService::submit`] from their own threads; the call
/// blocks through admission and the mining loop and returns the full result.
/// All concurrent requests multiplex their counting scans over the **single**
/// machine-sized [`Pool`] owned by the service — no per-request thread
/// spawning anywhere. Each request plans its own session, and every request
/// on a cached database counts against that database's one shared index,
/// whatever its configuration and however many requests read it at once: a
/// level the index answers (level 1 from its counts, a distinct level 2 from
/// its pair table) makes no stream pass on a hit.
///
/// ```
/// use std::sync::Arc;
/// use tdm_core::{Alphabet, EventDb, MinerConfig};
/// use tdm_serve::{MiningRequest, MiningService, ServiceConfig};
///
/// let service = MiningService::new(ServiceConfig { workers: 2, ..Default::default() });
/// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(50)).unwrap());
/// let request = MiningRequest::new(db, MinerConfig { alpha: 0.1, ..Default::default() });
///
/// let first = service.submit(&request).unwrap();
/// let second = service.submit(&request).unwrap(); // index-cache hit
/// assert_eq!(first.result, second.result);
/// assert!(first.result.total_frequent() > 0);
/// assert_eq!(service.stats().cache.hits, 1);
/// ```
pub struct MiningService {
    pool: Arc<Pool>,
    admission: AdmissionQueue,
    cache: Mutex<IndexCache>,
    counters: RequestCounters,
}

impl std::fmt::Debug for MiningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningService")
            .field("pool_workers", &self.pool.workers())
            .field("admission", &self.admission)
            .finish()
    }
}

impl MiningService {
    /// Builds a service: spawns the shared pool and sizes the admission gate
    /// and cache per `config`.
    pub fn new(config: ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            default_workers()
        } else {
            config.workers
        };
        let max_in_flight = if config.max_in_flight == 0 {
            workers
        } else {
            config.max_in_flight
        };
        MiningService {
            pool: Arc::new(Pool::with_workers(workers)),
            admission: AdmissionQueue::new(max_in_flight, config.max_pending),
            cache: Mutex::new(IndexCache::new(config.cache_capacity)),
            counters: RequestCounters::default(),
        }
    }

    /// The shared worker pool (e.g. to build coordinated sessions outside the
    /// service).
    pub fn pool(&self) -> &Arc<Pool> {
        &self.pool
    }

    /// Serves one request on the engine ([`AutoBackend`]); blocks through
    /// admission and the mining loop.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the waiting room is full,
    /// [`ServeError::Cancelled`] when the request's deadline passes or its
    /// [`CancelToken`] fires before the level loop finishes,
    /// [`ServeError::Mine`] when the backend fails.
    pub fn submit(&self, request: &MiningRequest) -> Result<MiningResponse, ServeError> {
        self.submit_with(request, &mut AutoBackend)
    }

    /// Serves one request with a caller-supplied executor (any
    /// [`Executor`] — a paper baseline, the simulated GPU pipeline, custom
    /// kernels, instrumented spies): one place at the admission gate, one
    /// cache lookup and one session's level loop. This is the one serving
    /// path.
    ///
    /// # Errors
    /// Same taxonomy as [`MiningService::submit`].
    ///
    /// # Panics
    /// Whenever `executor` panics: the panic goes on to the caller after the
    /// request is counted as failed.
    pub fn submit_with(
        &self,
        request: &MiningRequest,
        executor: &mut dyn Executor,
    ) -> Result<MiningResponse, ServeError> {
        let arrived = Instant::now();
        // The cache key hashes the whole database: computed before taking a
        // slot, so hashing never holds one.
        let key = request.key();
        // One effective token per submission: the caller's handle (if any)
        // tightened by the request deadline (if any), measured from *arrival*
        // — time queued at the gate spends the budget too.
        let cancel = match (&request.cancel, request.deadline) {
            (Some(t), Some(d)) => Some(t.deadline_within(d)),
            (Some(t), None) => Some(t.clone()),
            (None, Some(d)) => Some(CancelToken::new().deadline_within(d)),
            (None, None) => None,
        };
        let permit = match self.admission.acquire(request.priority) {
            Ok(p) => p,
            Err(over) => {
                bump(&self.counters.rejected, 1);
                return Err(ServeError::Overloaded {
                    pending: over.pending,
                    limit: over.limit,
                });
            }
        };
        let queue_wait = arrived.elapsed();
        let mining = Instant::now();
        // A panicking executor still counts: the request fails, and the
        // panic goes on. The cache is never locked while the level loop runs.
        let mined =
            std::panic::catch_unwind(AssertUnwindSafe(|| self.mine(request, executor, cancel)))
                .unwrap_or_else(|panic| {
                    bump(&self.counters.failed, 1);
                    std::panic::resume_unwind(panic)
                });
        let mine_time = mining.elapsed();
        drop(permit);
        // Cancellations become the typed [`ServeError::Cancelled`]
        // ([`classify_mine_error`]).
        let served = mined.map_err(classify_mine_error);
        let counter = match &served {
            Ok(_) => &self.counters.completed,
            Err(ServeError::Cancelled { .. }) => &self.counters.cancelled,
            Err(_) => &self.counters.failed,
        };
        bump(counter, 1);
        served.map(|(result, cache)| MiningResponse {
            result,
            stats: ResponseStats {
                cache,
                queue_wait,
                mine_time,
                key,
            },
        })
    }

    /// The one mining path: share the database's cached index (or build it
    /// and cache it), plan a session over it for the request's config, and
    /// run its level loop on `executor`.
    ///
    /// The cache is keyed on the database alone, so any request on a cached
    /// database hits, whatever its config, and nothing is taken out while it
    /// mines: concurrent requests on one database read one index, pair table
    /// included.
    fn mine(
        &self,
        request: &MiningRequest,
        executor: &mut dyn Executor,
        token: Option<CancelToken>,
    ) -> Result<(MiningResult, CacheOutcome), MineError> {
        let (key, db) = (request.key(), &request.db);
        let cached = self.cache.lock().expect("index cache").get(key, db);
        let (entry, cache) = match cached {
            Some(entry) => (entry, CacheOutcome::Hit),
            None => {
                let built = Entry {
                    db: Arc::clone(db),
                    index: Arc::new(OccurrenceIndex::build(db.alphabet().len(), db.symbols())),
                };
                let (entry, unused) = self.cache.lock().expect("index cache").put(key, built);
                // Freed here, after the lock is released.
                drop(unused);
                (entry, CacheOutcome::Miss)
            }
        };
        let mut session = MiningSession::builder_shared(entry.db)
            .with_pool(Arc::clone(&self.pool))
            .with_index(entry.index)
            .config(request.config)
            .build();
        // The request's class rides through to the pool's job lanes: the
        // parallel executors submit its scans at this priority.
        session.set_job_priority(request.priority);
        session.set_cancel_token(token);
        let result = session.mine(executor)?;
        Ok((result, cache))
    }

    /// Aggregate counters since service start.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        ServiceStats {
            completed: read(&c.completed),
            failed: read(&c.failed),
            rejected: read(&c.rejected),
            cancelled: read(&c.cancelled),
            cache: self.cache.lock().expect("index cache").stats(),
        }
    }

    /// Databases currently in the cache, one entry each.
    pub fn cached_databases(&self) -> usize {
        self.cache.lock().expect("index cache").len()
    }

    /// Requests currently waiting at the admission gate.
    pub fn pending(&self) -> usize {
        self.admission.pending()
    }

    /// Requests currently mining.
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::miner::{Miner, SequentialBackend};
    use tdm_core::Alphabet;

    fn db_of(s: &str) -> Arc<EventDb> {
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap())
    }

    fn cfg() -> MinerConfig {
        MinerConfig {
            alpha: 0.05,
            max_level: Some(3),
            ..Default::default()
        }
    }

    #[test]
    fn serves_and_matches_the_serial_miner() {
        let service = MiningService::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        });
        let db = db_of(&"ABCXYZ".repeat(40));
        let serial = Miner::new(cfg())
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        let resp = service.submit(&MiningRequest::new(db, cfg())).unwrap();
        assert_eq!(resp.result, serial);
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service = MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let db = db_of(&"AB".repeat(60));
        let req = MiningRequest::new(Arc::clone(&db), cfg());
        let first = service.submit(&req).unwrap();
        assert_eq!(first.stats.cache, CacheOutcome::Miss);
        let second = service.submit(&req).unwrap();
        assert_eq!(second.stats.cache, CacheOutcome::Hit);
        assert_eq!(first.result, second.result);
        assert_eq!(service.cached_databases(), 1);

        // Same content under a different Arc handle still hits (content
        // verification, not pointer identity).
        let clone = db_of(&"AB".repeat(60));
        let third = service.submit(&MiningRequest::new(clone, cfg())).unwrap();
        assert_eq!(third.stats.cache, CacheOutcome::Hit);

        // A different config on the same database hits the same entry.
        let other = MinerConfig {
            alpha: 0.2,
            ..cfg()
        };
        let fourth = service
            .submit(&MiningRequest::new(Arc::clone(&db), other))
            .unwrap();
        assert_eq!(fourth.stats.cache, CacheOutcome::Hit);
        assert_eq!(service.cached_databases(), 1);
        let serial = Miner::new(other)
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        assert_eq!(fourth.result, serial);
    }

    #[test]
    fn mine_errors_carry_the_taxonomy_and_do_not_poison_the_service() {
        struct Broken;
        impl Executor for Broken {
            fn execute(
                &mut self,
                req: &tdm_core::session::CountRequest<'_>,
            ) -> Result<tdm_core::session::Counts, tdm_core::session::BackendError> {
                Ok(vec![0; req.candidates() + 1])
            }
            fn name(&self) -> &str {
                "broken"
            }
        }
        let service = MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let db = db_of(&"ABC".repeat(30));
        let req = MiningRequest::new(Arc::clone(&db), cfg());
        let err = service.submit_with(&req, &mut Broken).unwrap_err();
        match &err {
            ServeError::Mine(m) => assert_eq!(m.backend, "broken"),
            other => panic!("wrong error: {other:?}"),
        }
        assert!(!err.to_string().is_empty());
        assert_eq!(service.stats().failed, 1);
        // The cached index still serves healthy requests afterwards.
        let ok = service.submit(&req).unwrap();
        assert_eq!(ok.stats.cache, CacheOutcome::Hit);
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn a_panicking_executor_counts_as_failed_and_keeps_the_cached_index() {
        struct Panics;
        impl Executor for Panics {
            fn execute(
                &mut self,
                _: &tdm_core::session::CountRequest<'_>,
            ) -> Result<tdm_core::session::Counts, tdm_core::session::BackendError> {
                panic!("executor bug")
            }
        }
        let service = MiningService::new(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..Default::default()
        });
        let req = MiningRequest::new(db_of(&"ABC".repeat(30)), cfg());
        service.submit(&req).unwrap();
        let unwound =
            std::panic::catch_unwind(AssertUnwindSafe(|| service.submit_with(&req, &mut Panics)));
        assert!(unwound.is_err(), "the panic reaches the caller");
        let stats = service.stats();
        assert_eq!((stats.completed, stats.failed), (1, 1));
        assert_eq!(service.in_flight(), 0);
        // Nothing was taken out of the cache, so nothing was lost with it.
        let next = service.submit(&req).unwrap();
        assert_eq!(next.stats.cache, CacheOutcome::Hit);
        assert_eq!(next.result.db_len, 90);
    }

    #[test]
    fn the_default_backend_is_the_strategy_dispatching_engine() {
        // One choice remains, and naming it changes nothing about a request.
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
        let req = MiningRequest::new(db_of("ABAB"), cfg());
        assert_eq!(req.clone().backend(BackendChoice::Auto).key(), req.key());
    }

    #[test]
    fn overload_rejection_is_immediate_and_counted() {
        // One slot, zero-size waiting room: a second concurrent request is
        // rejected while the first blocks the slot.
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            max_pending: 1,
            ..Default::default()
        }));
        // Fill the slot from another thread with a long-ish request, then
        // saturate the waiting room.
        let db = db_of(&"ABCDEFGH".repeat(400));
        let req = MiningRequest::new(Arc::clone(&db), MinerConfig::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let service = Arc::clone(&service);
                let req = req.clone();
                s.spawn(move || {
                    // Outcomes race between Ok and Overloaded; both are legal.
                    let _ = service.submit(&req);
                });
            }
        });
        let stats = service.stats();
        assert_eq!(stats.completed + stats.rejected, 4);
    }

    /// A correct executor that dawdles: each level scan counts for real but
    /// takes at least `delay`, so a short deadline expires between levels.
    struct Dawdler {
        delay: Duration,
        executes: usize,
    }
    impl Executor for Dawdler {
        fn execute(
            &mut self,
            req: &tdm_core::session::CountRequest<'_>,
        ) -> Result<tdm_core::session::Counts, tdm_core::session::BackendError> {
            std::thread::sleep(self.delay);
            self.executes += 1;
            let mut scratch = tdm_core::engine::CountScratch::new();
            Ok(req.compiled().count(req.stream(), &mut scratch))
        }
        fn name(&self) -> &str {
            "dawdler"
        }
    }

    #[test]
    fn deadline_expiry_cancels_mid_loop_and_releases_the_slot() {
        let service = MiningService::new(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..Default::default()
        });
        let db = db_of(&"ABCD".repeat(50));
        let config = MinerConfig {
            alpha: 0.01,
            max_level: Some(6),
            ..Default::default()
        };
        let mut spy = Dawdler {
            delay: Duration::from_millis(40),
            executes: 0,
        };
        let req = MiningRequest::new(Arc::clone(&db), config).deadline(Duration::from_millis(10));
        let err = service.submit_with(&req, &mut spy).unwrap_err();
        match err {
            ServeError::Cancelled { level } => assert!(level >= 1, "level {level}"),
            other => panic!("wrong error: {other:?}"),
        }
        // Later levels never executed: at most one scan fit the 10ms budget.
        assert!(spy.executes <= 1, "executed {} levels", spy.executes);
        assert_eq!(service.stats().cancelled, 1);

        // The in-flight slot was released (max_in_flight=1: a stuck slot
        // would deadlock), and the database's index stays cached.
        let ok = service
            .submit(&MiningRequest::new(db, config))
            .expect("slot released");
        assert_eq!(ok.stats.cache, CacheOutcome::Hit);
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn caller_held_token_cancels_before_the_first_scan() {
        let service = MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        });
        let db = db_of(&"AB".repeat(40));
        let token = tdm_core::CancelToken::new();
        token.cancel();
        let mut spy = Dawdler {
            delay: Duration::ZERO,
            executes: 0,
        };
        let req = MiningRequest::new(db, cfg()).cancel_token(token);
        let err = service.submit_with(&req, &mut spy).unwrap_err();
        assert_eq!(err, ServeError::Cancelled { level: 1 });
        assert_eq!(spy.executes, 0, "no scan may run after cancellation");
    }
}
