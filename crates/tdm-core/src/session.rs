//! The plan/execute counting API: compile once per level, execute many times.
//!
//! The paper's central systems lesson — echoed by later GPU mining systems
//! like Everest and Mayura — is that counting dominates mining and must be
//! *staged*: candidate layout, launch geometry, and per-level buffer reuse are
//! planning decisions, separate from the backend that executes the scan. This
//! module is that seam:
//!
//! * [`MiningSession`] — the **plan** side. Built from `&EventDb` + one or
//!   more [`MinerConfig`]s via [`MiningSession::builder`], it owns the
//!   [`CompiledCandidates`] (recompiled in place once per level), the
//!   database shard bounds, and a persistent [`Pool`] of worker threads that
//!   serves every counting call of the level loop.
//! * [`CountRequest`] — the borrowed view handed to backends: the compiled
//!   CSR buffers and symbol-anchor index, the symbol stream, the shard
//!   bounds, the session pool, and the level metadata. No `&[Episode]`, no
//!   clones, no recompiles on the execute side.
//! * [`Executor`] — the **execute** side: one `execute(&CountRequest) ->
//!   Result<Counts, BackendError>` call per level. CPU backends scan borrowed
//!   chunks; GPU backends derive launch geometry and sampling from the same
//!   compiled layout.
//!
//! The level-wise miner ([`crate::miner::Miner`]) is a thin driver over a
//! session; long-lived services can hold a session directly and stream
//! per-level results via [`MiningSession::mine_with`].
//!
//! A session mines **one or more** member configurations over its one stream
//! snapshot (Mayura-style co-mining): every [`MiningSessionBuilder::config`]
//! call adds a member, and the members' level loops advance in lockstep with
//! one join, one compile and one executor scan per level, however many
//! members are still mining ([`MiningSession::co_mine`]). A solo request is a
//! batch of one. The level loop keeps its candidates in one flat lattice per
//! mine (Patnaik et al.'s flat layouts): each level-`k` row holds its `k`
//! items and links to its prefix and suffix parents in level `k − 1`, and
//! carries the set of members it is a candidate for — both parents frequent
//! for the member, and the member's `distinct_items_only` rule passed. The
//! rows are exactly the union of the members' candidate sets, in
//! lexicographic order; they compile straight into the session's buffers,
//! and every member reads its counts in place. An [`Episode`] is built only
//! for a frequent row of a member's reply.
//!
//! Sessions come in two ownership shapes. [`MiningSession::builder`] borrows
//! the database (`MiningSession<'db>`), right for scoped use. A **serving**
//! layer instead wants sessions that outlive any one request and share one
//! machine-sized worker pool across tenants: [`MiningSession::builder_shared`]
//! takes `Arc<EventDb>` and yields a `MiningSession<'static>` that can live in
//! a cache, and [`MiningSessionBuilder::with_pool`] attaches an externally
//! owned `Arc<Pool>` instead of spawning a private one — any number of
//! concurrent sessions multiplex their scan jobs over the same threads (see
//! the `tdm-serve` crate).
//!
//! ```
//! use tdm_core::session::MiningSession;
//! use tdm_core::miner::{MinerConfig, SequentialBackend};
//! use tdm_core::{Alphabet, EventDb};
//!
//! let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(50)).unwrap();
//! let mut session = MiningSession::builder(&db)
//!     .config(MinerConfig { alpha: 0.1, ..Default::default() })
//!     .build();
//! let result = session.mine(&mut SequentialBackend::default()).unwrap();
//! assert!(result.total_frequent() > 0);
//! // One compile per level, however many executors ran.
//! assert_eq!(session.compiles(), result.levels.len());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::candidate::Lattice;
use crate::engine::{CompiledCandidates, OccurrenceIndex, MIN_SHARD_STREAM};
use crate::episode::Episode;
use crate::miner::MinerConfig;
use crate::segment::even_bounds;
use crate::sequence::EventDb;
use crate::stats::{support, LevelResult, MiningResult};
use crate::CoreError;
use std::sync::OnceLock;
use tdm_mapreduce::pool::{default_workers, Pool, Priority};

/// Appearance counts, one per candidate episode in compiled order.
pub type Counts = Vec<u64>;

/// How a session holds its database: borrowed for scoped use, or shared
/// behind an `Arc` so the session has no borrowed lifetime and can sit in a
/// cache between requests (the serving configuration).
#[derive(Debug, Clone)]
enum DbHandle<'db> {
    Borrowed(&'db EventDb),
    Shared(Arc<EventDb>),
}

impl DbHandle<'_> {
    #[inline]
    fn get(&self) -> &EventDb {
        match self {
            DbHandle::Borrowed(db) => db,
            DbHandle::Shared(db) => db,
        }
    }
}

/// The session's worker pool: spawned lazily and owned by the session, or
/// shared with other sessions through an `Arc` (the multi-tenant serving
/// configuration — one machine-sized pool, many concurrent sessions).
#[derive(Debug)]
enum PoolSlot {
    Owned {
        workers: usize,
        cell: OnceLock<Pool>,
    },
    Shared(Arc<Pool>),
}

impl PoolSlot {
    #[inline]
    fn get(&self) -> &Pool {
        match self {
            PoolSlot::Owned { workers, cell } => cell.get_or_init(|| Pool::with_workers(*workers)),
            PoolSlot::Shared(pool) => pool,
        }
    }
}

/// A cooperative cancellation handle checked by the level loop
/// ([`MiningSession::mine_with`], [`MiningSession::co_mine`]) **between**
/// level scans: an abandoned request stops before compiling or counting its
/// next level instead of running the full loop for nobody.
///
/// The flag is shared across clones (an `Arc<AtomicBool>`), so a serving
/// layer can hand one copy to the session and keep another to fire from a
/// watchdog or disconnect handler. The deadline, by contrast, is a plain
/// per-copy value: [`deadline_within`](CancelToken::deadline_within) returns
/// a *tightened* copy without affecting other holders.
///
/// ```
/// use std::time::Duration;
/// use tdm_core::session::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled()); // the flag is shared
///
/// let expired = CancelToken::new().deadline_within(Duration::ZERO);
/// assert!(expired.is_cancelled()); // the deadline already passed
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// A copy of this token whose deadline is at most `timeout` from now
    /// (tightening an earlier deadline, never loosening it). The cancel flag
    /// stays shared with the original.
    pub fn deadline_within(&self, timeout: Duration) -> Self {
        let at = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400));
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(at),
                None => at,
            }),
        }
    }

    /// Fires the shared cancel flag: every clone of this token reports
    /// cancelled from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True when the flag was fired or this copy's deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// This copy's deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// The longest episode the level loop counts: 256 items, the most a `u8`
/// FSM state covers (the engine's scan state, `fsm::EpisodeFsm::state` and
/// `segment::Continuation::end_state` are all `u8`). A longer level is
/// refused with [`BackendError::EpisodeTooLong`] instead of being counted
/// wrong.
pub const MAX_EPISODE_LEVEL: usize = u8::MAX as usize + 1;

/// An error raised by a counting backend's execute phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend returned the wrong number of counts.
    CountLength {
        /// Counts expected (the compiled candidate count).
        expected: usize,
        /// Counts actually returned.
        got: usize,
    },
    /// A kernel/launch configuration was rejected (simulated GPU backends).
    Launch(String),
    /// Any other execution failure, with a human-readable reason.
    Failed(String),
    /// The request's [`CancelToken`] fired (deadline passed or explicitly
    /// cancelled) before this level's scan started; later levels never ran.
    Cancelled,
    /// The level's episodes are longer than [`MAX_EPISODE_LEVEL`] items; the
    /// level loop refused to count it.
    EpisodeTooLong {
        /// The refused level.
        level: usize,
        /// The cap, [`MAX_EPISODE_LEVEL`].
        max: usize,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::CountLength { expected, got } => {
                write!(f, "backend returned {got} counts for {expected} candidates")
            }
            BackendError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            BackendError::Failed(e) => write!(f, "backend execution failed: {e}"),
            BackendError::Cancelled => {
                write!(
                    f,
                    "request cancelled (deadline passed) before the level scan"
                )
            }
            BackendError::EpisodeTooLong { level, max } => {
                write!(
                    f,
                    "level {level} exceeds the {max}-item episode cap of a u8 FSM state"
                )
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// An error from a mining run: which level failed, which backend, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MineError {
    /// Episode level at which counting failed.
    pub level: usize,
    /// `Executor::name` of the failing backend.
    pub backend: String,
    /// The underlying backend error.
    pub source: BackendError,
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mining failed at level {} in backend {:?}: {}",
            self.level, self.backend, self.source
        )
    }
}

impl std::error::Error for MineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One level's counting work, as a set of borrowed views: everything a
/// backend needs to execute, nothing it could use to recompile.
///
/// The request borrows from the owning [`MiningSession`]; parallel executors
/// ship work to the session's persistent [`Pool`] by cloning the `Arc`
/// handles ([`CountRequest::compiled_shared`], [`CountRequest::stream_shared`])
/// — a refcount bump, never a buffer copy.
#[derive(Debug, Clone, Copy)]
pub struct CountRequest<'a> {
    db: &'a EventDb,
    stream: &'a Arc<[u8]>,
    compiled: &'a Arc<CompiledCandidates>,
    vertical: &'a OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: &'a [usize],
    pool: &'a PoolSlot,
    workers: usize,
    priority: Priority,
    level: usize,
}

impl<'a> CountRequest<'a> {
    /// The event database (alphabet + stream + optional timestamps).
    #[inline]
    pub fn db(&self) -> &'a EventDb {
        self.db
    }

    /// The symbol stream to scan.
    #[inline]
    pub fn stream(&self) -> &'a [u8] {
        self.stream
    }

    /// A shareable handle to the stream for `'static` pool jobs (refcount
    /// bump, not a copy).
    #[inline]
    pub fn stream_shared(&self) -> Arc<[u8]> {
        Arc::clone(self.stream)
    }

    /// The compiled candidate set (flat CSR items + symbol-anchor index).
    #[inline]
    pub fn compiled(&self) -> &'a CompiledCandidates {
        self.compiled
    }

    /// A shareable handle to the compiled set for `'static` pool jobs
    /// (refcount bump, not a copy).
    #[inline]
    pub fn compiled_shared(&self) -> Arc<CompiledCandidates> {
        Arc::clone(self.compiled)
    }

    /// Number of candidate episodes in the request.
    #[inline]
    pub fn candidates(&self) -> usize {
        self.compiled.len()
    }

    /// The per-symbol [`OccurrenceIndex`] over this session's stream
    /// snapshot, built lazily on first use and **cached on the session** —
    /// every level of the loop, and every member of a multi-member session,
    /// shares the one build. Vertical-strategy executors and
    /// the per-level dispatch rule
    /// ([`CompiledCandidates::choose_strategy`]) read it from here. The
    /// index's position lists are built once too, by the first vertical
    /// probe ([`OccurrenceIndex::occurrences`]), and so is its pair table, by
    /// the first distinct level-2 read; a session whose levels all dispatch
    /// elsewhere holds only the per-symbol counts.
    pub fn occurrence_index(&self) -> &'a OccurrenceIndex {
        self.vertical.get_or_init(|| {
            Arc::new(OccurrenceIndex::build(
                self.db.alphabet().len(),
                self.stream,
            ))
        })
    }

    /// A shareable handle to the occurrence index for `'static` pool jobs
    /// (refcount bump, not a rebuild).
    pub fn occurrence_index_shared(&self) -> Arc<OccurrenceIndex> {
        self.occurrence_index();
        Arc::clone(self.vertical.get().expect("index initialized above"))
    }

    /// The session's database shard bounds (interior cut positions for
    /// database-parallel executors; empty when the stream is too short to
    /// shard or the session runs single-worker).
    #[inline]
    pub fn shard_bounds(&self) -> &'a [usize] {
        self.shard_bounds
    }

    /// The session's persistent worker pool — the session-owned one (spawned
    /// lazily on first use, so sequential executors never pay for idle
    /// threads), or the externally shared pool the session was built with.
    #[inline]
    pub fn pool(&self) -> &'a Pool {
        self.pool.get()
    }

    /// The session's planned worker count, without spawning the pool.
    /// Executors sizing their decomposition (chunk counts, fallback
    /// thresholds) should read this and call [`pool`] only when they actually
    /// dispatch work.
    ///
    /// [`pool`]: CountRequest::pool
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduling class this request's pool jobs should run at
    /// ([`MiningSession::set_job_priority`]). Parallel executors pass it to
    /// [`Pool::map_move_prio`] so high-priority requests overtake queued
    /// normal-priority scans on a shared pool.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Episode level (item count) of this request's candidates.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Contiguous candidate-chunk ranges for candidate-sharded executors:
    /// at most `chunks` ranges covering `0..candidates()`.
    pub fn chunk_ranges(&self, chunks: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.candidates();
        if n == 0 {
            return Vec::new();
        }
        let size = n.div_ceil(chunks.max(1));
        (0..n.div_ceil(size))
            .map(|i| i * size..((i + 1) * size).min(n))
            .collect()
    }
}

/// The execute side of the plan/execute counting API.
///
/// Implementations receive a borrowed [`CountRequest`] — compiled candidates,
/// stream, shard bounds, pool — and return one count per candidate. They must
/// not recompile or clone the candidate set; everything needed is in the
/// request.
///
/// A minimal custom executor is a dozen lines:
///
/// ```
/// use tdm_core::engine::CountScratch;
/// use tdm_core::session::{BackendError, CountRequest, Counts, Executor, MiningSession};
/// use tdm_core::{Alphabet, EventDb};
///
/// struct MyBackend(CountScratch);
///
/// impl Executor for MyBackend {
///     fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
///         // One active-set pass over the session-compiled layout; the
///         // request also offers req.pool() / req.shard_bounds() /
///         // req.chunk_ranges(n) for parallel decompositions.
///         Ok(req.compiled().count(req.stream(), &mut self.0))
///     }
///     fn name(&self) -> &str {
///         "my-backend"
///     }
/// }
///
/// let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"AB".repeat(40)).unwrap();
/// let mut session = MiningSession::builder(&db).build();
/// let result = session.mine(&mut MyBackend(CountScratch::new())).unwrap();
/// assert!(result.total_frequent() > 0);
/// ```
pub trait Executor {
    /// Counts every candidate of the request.
    ///
    /// # Errors
    /// [`BackendError`] when the backend cannot execute the request (e.g. a
    /// rejected kernel launch). Length mismatches are caught by the session.
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError>;

    /// A short human-readable name (used in reports and errors).
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// Builder for a [`MiningSession`]: add one [`config`](Self::config) per
/// member (none means one default member), then [`build`](Self::build).
#[derive(Debug)]
pub struct MiningSessionBuilder<'db> {
    db: DbHandle<'db>,
    configs: Vec<MinerConfig>,
    workers: usize,
    pool: Option<Arc<Pool>>,
}

impl<'db> MiningSessionBuilder<'db> {
    /// Adds one member: a mining configuration (support threshold, level
    /// bound, …) mined over the session's stream. Member results come back in
    /// the order configs were added; a builder given no config builds one
    /// member with [`MinerConfig::default`].
    pub fn config(mut self, config: MinerConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds several members at once (see [`config`](Self::config)).
    pub fn configs(mut self, configs: impl IntoIterator<Item = MinerConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Sets the worker-pool size (0 = the machine's available parallelism, or
    /// the shared pool's size when [`with_pool`] was given).
    ///
    /// With a shared pool this only tunes the session's *decomposition* —
    /// shard bounds and default chunk counts — not how many threads exist.
    ///
    /// [`with_pool`]: MiningSessionBuilder::with_pool
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an externally owned, shared worker pool instead of letting the
    /// session spawn a private one. Every counting call of this session
    /// dispatches to `pool`; any number of concurrent sessions can share the
    /// same `Arc<Pool>` — the multi-tenant serving configuration, where one
    /// machine-sized pool serves every client.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tdm_core::miner::{MinerConfig, SequentialBackend};
    /// use tdm_core::session::MiningSession;
    /// use tdm_core::{Alphabet, EventDb};
    /// use tdm_mapreduce::pool::Pool;
    ///
    /// let pool = Arc::new(Pool::with_workers(2));
    /// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(30)).unwrap());
    ///
    /// // An owned session (no borrowed lifetime) over a shared pool: what a
    /// // serving layer caches between requests.
    /// let mut session = MiningSession::builder_shared(Arc::clone(&db))
    ///     .config(MinerConfig { alpha: 0.1, ..Default::default() })
    ///     .with_pool(Arc::clone(&pool))
    ///     .build();
    /// let result = session.mine(&mut SequentialBackend::default()).unwrap();
    /// assert!(result.total_frequent() > 0);
    /// assert_eq!(session.pool().workers(), 2);
    /// ```
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builds the session: snapshots the stream **once** for every member (a
    /// refcount bump on the database's own shared buffer, never a byte copy)
    /// and fixes the database shard bounds. Without [`with_pool`], the
    /// persistent pool is spawned lazily the first time an executor (or
    /// [`MiningSession::pool`]) asks for it.
    ///
    /// [`with_pool`]: MiningSessionBuilder::with_pool
    pub fn build(self) -> MiningSession<'db> {
        let workers = if self.workers != 0 {
            self.workers
        } else if let Some(pool) = &self.pool {
            pool.workers()
        } else {
            default_workers()
        };
        let mut configs = self.configs;
        if configs.is_empty() {
            configs.push(MinerConfig::default());
        }
        let stream = self.db.get().symbols_shared();
        let pool = match self.pool {
            Some(pool) => PoolSlot::Shared(pool),
            None => PoolSlot::Owned {
                workers,
                cell: OnceLock::new(),
            },
        };
        MiningSession {
            epoch: self.db.get().epoch(),
            shard_bounds: shard_bounds(stream.len(), workers),
            db: self.db,
            stream,
            configs,
            compiled: Arc::new(CompiledCandidates::default()),
            vertical: OnceLock::new(),
            workers,
            pool,
            priority: Priority::Normal,
            cancel: None,
            compiles: 0,
        }
    }
}

/// Interior shard cut positions for a stream of `n` symbols split across
/// `workers` (none when single-worker or too short to shard).
fn shard_bounds(n: usize, workers: usize) -> Vec<usize> {
    if workers > 1 && n >= MIN_SHARD_STREAM {
        even_bounds(n, workers)
    } else {
        Vec::new()
    }
}

/// The plan side of the counting API: owns everything that should be built
/// once and reused across the level loop — the compiled candidate layout, the
/// database shard bounds, and the persistent worker pool — for one or more
/// member configurations mined in lockstep.
///
/// One session serves any number of executors; the compiled buffers are
/// recompiled **in place** exactly once per level (`Arc::make_mut` — workers
/// drop their handles at the end of each execute, so the steady state never
/// copies). With several members still mining, a level is joined once over
/// the members' frequent rows, compiled once as the union of their candidate
/// sets, and counted with a **single** executor scan that every member reads
/// in place — K requests over one database cost one join and one scan per
/// level instead of K. Results are **bit-identical** to mining each
/// configuration alone: the engine's count of an episode never depends on
/// what else is compiled alongside it, which the workspace differential
/// suite (`tests/comining.rs`) proves under adversarial overlap. See the
/// [module docs](self) for the full picture.
///
/// ```
/// use std::sync::Arc;
/// use tdm_core::miner::{Miner, MinerConfig, SequentialBackend};
/// use tdm_core::session::MiningSession;
/// use tdm_core::{Alphabet, EventDb};
///
/// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCD".repeat(60)).unwrap());
/// let fast = MinerConfig { alpha: 0.01, max_level: Some(2), ..Default::default() };
/// let deep = MinerConfig { alpha: 0.001, max_level: Some(3), ..Default::default() };
///
/// // Two configurations, one shared scan per level.
/// let mut group = MiningSession::builder_shared(Arc::clone(&db)).config(fast).config(deep).build();
/// let results = group.co_mine(&mut SequentialBackend::default()).unwrap();
///
/// // Bit-identical to mining each request on its own.
/// for (cfg, got) in [fast, deep].into_iter().zip(&results) {
///     let solo = Miner::new(cfg).mine(&db, &mut SequentialBackend::default()).unwrap();
///     assert_eq!(*got, solo);
/// }
/// // Three levels deep at most, and exactly one compile+scan per level.
/// assert_eq!(group.compiles(), results.iter().map(|r| r.levels.len()).max().unwrap());
/// ```
pub struct MiningSession<'db> {
    db: DbHandle<'db>,
    stream: Arc<[u8]>,
    /// Append epoch of the database at the moment `stream` was snapshotted
    /// ([`EventDb::epoch`]); the cached occurrence index is only ever valid
    /// for this snapshot, and [`rebase`](MiningSession::rebase) refuses
    /// databases that are not append-descendants of it.
    epoch: u64,
    /// The member configurations, in result order (never empty).
    configs: Vec<MinerConfig>,
    compiled: Arc<CompiledCandidates>,
    /// Per-symbol occurrence index over `stream`, built lazily by the first
    /// strategy-dispatching execute and reused for the session's whole
    /// lifetime (levels recompile, the stream never changes); its position
    /// lists wait for the first vertical probe and its pair table for the
    /// first level-2 read, and a parked session keeps both.
    vertical: OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: Vec<usize>,
    workers: usize,
    pool: PoolSlot,
    priority: Priority,
    /// Cooperative cancellation for the level loop; checked before each
    /// level's compile+scan. `None` (the default) never cancels.
    cancel: Option<CancelToken>,
    compiles: usize,
}

impl std::fmt::Debug for MiningSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningSession")
            .field("db_len", &self.db.get().len())
            .field("members", &self.configs.len())
            .field("workers", &self.workers)
            .field("compiles", &self.compiles)
            .finish()
    }
}

impl<'db> MiningSession<'db> {
    /// Starts building a session over a borrowed `db` (one default member,
    /// auto workers). For a session with no borrowed lifetime — one a cache
    /// or another thread can own — see [`MiningSession::builder_shared`].
    pub fn builder(db: &'db EventDb) -> MiningSessionBuilder<'db> {
        MiningSessionBuilder {
            db: DbHandle::Borrowed(db),
            configs: Vec::new(),
            workers: 0,
            pool: None,
        }
    }

    /// Starts building a `MiningSession<'static>` that *shares ownership* of
    /// the database. Because nothing is borrowed, the built session can be
    /// stored, sent to another thread, or parked in a session cache between
    /// requests — the serving configuration (`tdm-serve`). Combine with
    /// [`MiningSessionBuilder::with_pool`] to run many such sessions over one
    /// machine-sized pool.
    pub fn builder_shared(db: Arc<EventDb>) -> MiningSessionBuilder<'static> {
        MiningSessionBuilder {
            db: DbHandle::Shared(db),
            configs: Vec::new(),
            workers: 0,
            pool: None,
        }
    }

    /// The database this session mines.
    pub fn db(&self) -> &EventDb {
        self.db.get()
    }

    /// The session's persistent worker pool (the owned one, spawned on first
    /// call, or the shared pool the session was built with).
    pub fn pool(&self) -> &Pool {
        self.pool.get()
    }

    /// The first member's configuration — the only one of a solo session.
    pub fn config(&self) -> &MinerConfig {
        &self.configs[0]
    }

    /// Every member's configuration, in result order.
    pub fn configs(&self) -> &[MinerConfig] {
        &self.configs
    }

    /// The session's planned worker count (decomposition width: shard bounds
    /// and default chunk counts are sized to this).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the scheduling class for this session's pool jobs: subsequent
    /// counting calls stamp their [`CountRequest`] with `priority`, and the
    /// parallel executors submit their scans on that lane
    /// ([`Pool::map_move_prio`]). On a *shared* pool this is how one
    /// session's request overtakes queued scans of other sessions; on a
    /// session-owned pool it is a no-op in effect (no competing jobs). A
    /// multi-member session typically runs at the *highest* class among its
    /// members, so sharing a scan never deprioritizes anyone's work.
    pub fn set_job_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// The scheduling class new counting calls run at.
    pub fn job_priority(&self) -> Priority {
        self.priority
    }

    /// Installs (or clears) the cooperative cancellation token the level loop
    /// checks before each level's compile+scan. A serving layer sets a fresh
    /// token per request — including `None` for requests without deadlines,
    /// so a parked, reused session never inherits a stale token. Cancelling
    /// fails every member: they share each level's scan, so they share the
    /// cancellation.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Re-targets the session to a new member list, in result order: the
    /// next run mines these configs over the same stream snapshot, shard
    /// bounds, occurrence index and compiled buffers, none of which depends
    /// on a config. An empty list leaves one default member, as the builder
    /// does. A serving layer parks one session per database and hands it to
    /// any batch this way: the level loop rebuilds every per-member
    /// structure from the configs on each call.
    pub fn set_configs(&mut self, configs: impl IntoIterator<Item = MinerConfig>) {
        self.configs.clear();
        self.configs.extend(configs);
        if self.configs.is_empty() {
            self.configs.push(MinerConfig::default());
        }
    }

    /// How many candidate sets this session has compiled — exactly one per
    /// counted level (the number of scans issued), regardless of how many
    /// executors ran against each or how many members rode it. Accumulates
    /// across runs when the session is reused (e.g. parked in a serving
    /// cache).
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    /// The current compiled candidate set (the last compiled level).
    pub fn compiled(&self) -> &CompiledCandidates {
        &self.compiled
    }

    /// The append epoch of the stream snapshot this session counts against
    /// (see [`EventDb::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-points a cached session at a **grown** database — the streaming
    /// handoff: a serving layer appends to its db, then rebases the parked
    /// session (one member or many) instead of rebuilding it. The stream
    /// snapshot is replaced (a refcount bump on the new buffer), shard bounds
    /// are recut for the new length, and a cached [`OccurrenceIndex`] is
    /// **extended in place** over the appended suffix
    /// ([`OccurrenceIndex::extend`]; position lists widen only if a probe
    /// had built them) rather than rebuilt — so the epoch-N index is never
    /// consulted against epoch-N+1 data, and never thrown away either.
    ///
    /// The session takes shared ownership of `db` (as with
    /// [`builder_shared`](MiningSession::builder_shared)).
    ///
    /// # Errors
    /// [`CoreError::StaleSnapshot`] when `db` is not an append-descendant of
    /// the session's snapshot (older epoch, or a shorter stream at the same
    /// alphabet) — the session is left untouched.
    pub fn rebase(&mut self, db: Arc<EventDb>) -> Result<(), CoreError> {
        if db.epoch() < self.epoch || db.len() < self.stream.len() {
            return Err(CoreError::StaleSnapshot {
                session_epoch: self.epoch,
                db_epoch: db.epoch(),
            });
        }
        let stream = db.symbols_shared();
        debug_assert_eq!(
            &stream[..self.stream.len()],
            &self.stream[..],
            "rebase target must be an append-descendant of the session snapshot"
        );
        if let Some(mut index) = self.vertical.take() {
            Arc::make_mut(&mut index).extend(&stream[self.stream.len()..]);
            let _ = self.vertical.set(index);
        }
        self.shard_bounds = shard_bounds(stream.len(), self.workers);
        self.stream = stream;
        self.epoch = db.epoch();
        self.db = DbHandle::Shared(db);
        Ok(())
    }

    /// The plan step: `compile` fills the session's reusable buffers in place
    /// (given them and the alphabet size), and the level's request borrows
    /// the result.
    fn plan(
        &mut self,
        level: usize,
        compile: impl FnOnce(&mut CompiledCandidates, usize),
    ) -> CountRequest<'_> {
        // The epoch guard on the lazily cached occurrence index: an
        // append-only stream never changes in place, so a cached index
        // describes the current snapshot iff their lengths agree. A mismatch
        // drops the cache and the next vertical execute rebuilds it — an
        // epoch-N index is never consulted against epoch-N+1 data.
        if self
            .vertical
            .get()
            .is_some_and(|ix| ix.stream_len() != self.stream.len())
        {
            self.vertical.take();
        }
        let alphabet_len = self.db.get().alphabet().len();
        compile(Arc::make_mut(&mut self.compiled), alphabet_len);
        self.compiles += 1;
        CountRequest {
            db: self.db.get(),
            stream: &self.stream,
            compiled: &self.compiled,
            vertical: &self.vertical,
            shard_bounds: &self.shard_bounds,
            pool: &self.pool,
            workers: self.workers,
            priority: self.priority,
            level,
        }
    }

    /// The plan step alone: compiles `candidates` into the session's reusable
    /// buffers and returns the borrowed request, so callers can run *many*
    /// executes against one compile (benchmarks, backend comparisons,
    /// serving). [`count_candidates`] is the plan+execute convenience.
    ///
    /// [`count_candidates`]: MiningSession::count_candidates
    pub fn plan_candidates(&mut self, candidates: &[Episode]) -> CountRequest<'_> {
        let level = candidates.iter().map(|e| e.level()).max().unwrap_or(1);
        self.plan(level, |compiled, alphabet_len| {
            compiled.recompile(alphabet_len, candidates)
        })
    }

    /// Compiles `candidates` once and executes `executor` against them.
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns the wrong number of
    /// counts.
    pub fn count_candidates<E: Executor + ?Sized>(
        &mut self,
        candidates: &[Episode],
        executor: &mut E,
    ) -> Result<Counts, MineError> {
        let level = candidates.iter().map(|e| e.level()).max().unwrap_or(1);
        self.count_level(
            level,
            |compiled, alphabet_len| compiled.recompile(alphabet_len, candidates),
            executor,
        )
    }

    fn count_level<E: Executor + ?Sized>(
        &mut self,
        level: usize,
        compile: impl FnOnce(&mut CompiledCandidates, usize),
        executor: &mut E,
    ) -> Result<Counts, MineError> {
        if level > MAX_EPISODE_LEVEL {
            return Err(MineError {
                level,
                backend: executor.name().to_string(),
                source: BackendError::EpisodeTooLong {
                    level,
                    max: MAX_EPISODE_LEVEL,
                },
            });
        }
        let req = self.plan(level, compile);
        let expected = req.candidates();
        let counts = executor.execute(&req).map_err(|source| MineError {
            level,
            backend: executor.name().to_string(),
            source,
        })?;
        if counts.len() != expected {
            return Err(MineError {
                level,
                backend: executor.name().to_string(),
                source: BackendError::CountLength {
                    expected,
                    got: counts.len(),
                },
            });
        }
        Ok(counts)
    }

    /// Runs the full level-wise mining loop (paper Algorithm 1) with
    /// `executor` as the counting step and returns the first member's result
    /// — the only one of a solo session ([`co_mine`] returns every member's).
    ///
    /// # Errors
    /// [`MineError`] from the first failing level.
    ///
    /// [`co_mine`]: MiningSession::co_mine
    pub fn mine<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
    ) -> Result<MiningResult, MineError> {
        self.mine_with(executor, |_| {})
    }

    /// Like [`mine`], but invokes `on_level` with each of the first member's
    /// level results as soon as that level's elimination step finishes — the
    /// streaming hook serving use-cases want (emit level-1 frequent episodes
    /// while level 2 counts).
    ///
    /// # Errors
    /// [`MineError`] from the first failing level.
    ///
    /// [`mine`]: MiningSession::mine
    pub fn mine_with<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
        mut on_level: impl FnMut(&LevelResult),
    ) -> Result<MiningResult, MineError> {
        let mut results = self.lockstep(executor, |member, level| {
            if member == 0 {
                on_level(level);
            }
        })?;
        Ok(results.swap_remove(0))
    }

    /// Runs every member's level-wise mining loop in lockstep, issuing **one**
    /// scan per level. Returns one [`MiningResult`] per member, in the order
    /// their configs were added — each bit-identical to a solo run of that
    /// config.
    ///
    /// # Errors
    /// [`MineError`] from the first failing scan (the members share the scan,
    /// so they share the failure).
    pub fn co_mine<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
    ) -> Result<Vec<MiningResult>, MineError> {
        self.lockstep(executor, |_, _| {})
    }

    /// The one level loop behind [`mine_with`](Self::mine_with) and
    /// [`co_mine`](Self::co_mine), over one flat candidate [`Lattice`] per
    /// mine: compile the level's rows, count them with one scan, let each
    /// member eliminate with its own α in place, then join once for every
    /// member still mining. `on_level` sees each member's level result
    /// (member index first).
    fn lockstep<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
        mut on_level: impl FnMut(usize, &LevelResult),
    ) -> Result<Vec<MiningResult>, MineError> {
        let db = self.db.get();
        let n = db.len();
        let mines =
            |config: &MinerConfig, level: usize| config.max_level.is_none_or(|l| level <= l);
        let distinct = member_set(&self.configs, |c| c.distinct_items_only);
        let mining = member_set(&self.configs, |c| mines(c, 1));
        let mut lattice = Lattice::singletons(db.alphabet().len(), &mining);
        let mut results: Vec<MiningResult> = self
            .configs
            .iter()
            .map(|_| MiningResult {
                levels: Vec::new(),
                db_len: n,
            })
            .collect();
        let mut level = 1usize;
        while !lattice.is_empty() {
            // Cooperative cancellation: an abandoned request (deadline passed,
            // client gone) stops here, before compiling or scanning the next
            // level — completed levels are simply discarded with the error.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(MineError {
                    level,
                    backend: executor.name().to_string(),
                    source: BackendError::Cancelled,
                });
            }
            let counts = self.count_level(
                level,
                |compiled, alphabet_len| {
                    compiled.recompile_rows(alphabet_len, lattice.level(), lattice.items())
                },
                executor,
            )?;

            // Each member reads its rows' counts in place; an `Episode` is
            // built only for a frequent row, and a row stays in a member's
            // set for the join only if the member mines the next level.
            let mut levels: Vec<LevelResult> = self
                .configs
                .iter()
                .map(|_| LevelResult {
                    level,
                    candidates: 0,
                    frequent: Vec::new(),
                })
                .collect();
            let configs = &self.configs;
            let mut joining = false;
            lattice.retain(|m, row, items| {
                let result = &mut levels[m];
                result.candidates += 1;
                let count = counts[row];
                let frequent = support(count, n) > configs[m].alpha;
                if frequent {
                    let episode = Episode::new(items.to_vec()).expect("lattice rows are non-empty");
                    result.frequent.push((episode, count));
                }
                let keep = frequent && mines(&configs[m], level + 1);
                joining |= keep;
                keep
            });
            for (m, result) in levels.into_iter().enumerate() {
                if result.candidates > 0 {
                    on_level(m, &result);
                    results[m].levels.push(result);
                }
            }
            if !joining {
                break;
            }
            lattice.join(&distinct);
            level += 1;
        }
        Ok(results)
    }
}

/// The set of members whose config satisfies `pick`, one bit per member in
/// config order (the lattice's member-set layout).
fn member_set(configs: &[MinerConfig], pick: impl Fn(&MinerConfig) -> bool) -> Vec<u64> {
    let mut set = vec![0u64; configs.len().div_ceil(64)];
    for (m, config) in configs.iter().enumerate() {
        set[m / 64] |= u64::from(pick(config)) << (m % 64);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{AutoBackend, Miner, SequentialBackend};
    use crate::Alphabet;

    /// Counts executes so tests can prove which levels ran.
    struct SpyBackend {
        executes: usize,
    }

    impl Executor for SpyBackend {
        fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
            self.executes += 1;
            Ok(req
                .compiled()
                .count(req.stream(), &mut crate::engine::CountScratch::new()))
        }
        fn name(&self) -> &str {
            "spy"
        }
    }

    fn db() -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABC".repeat(30)).unwrap()
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_scan() {
        let db = db();
        let mut session = MiningSession::builder(&db).build();
        let token = CancelToken::new();
        token.cancel();
        session.set_cancel_token(Some(token));
        let mut spy = SpyBackend { executes: 0 };
        let err = session.mine(&mut spy).unwrap_err();
        assert_eq!(err.level, 1);
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 0, "no level may scan after cancellation");
        assert_eq!(session.compiles(), 0);
    }

    #[test]
    fn cancelling_between_levels_stops_the_loop_mid_way() {
        let db = db();
        let mut session = MiningSession::builder(&db)
            .config(MinerConfig {
                alpha: 0.0001,
                ..Default::default()
            })
            .build();
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        let mut spy = SpyBackend { executes: 0 };
        // Fire the shared flag from the per-level hook: level 1 completes,
        // level 2 must never execute.
        let err = session
            .mine_with(&mut spy, |lr| {
                if lr.level == 1 {
                    token.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(err.level, 2);
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 1, "only level 1 may have scanned");
    }

    #[test]
    fn expired_deadline_cancels_and_clearing_the_token_recovers() {
        let db = db();
        let mut session = MiningSession::builder(&db).build();
        session.set_cancel_token(Some(CancelToken::new().deadline_within(Duration::ZERO)));
        let err = session.mine(&mut SpyBackend { executes: 0 }).unwrap_err();
        assert_eq!(err.source, BackendError::Cancelled);
        // The session is not poisoned: clearing the token mines normally.
        session.set_cancel_token(None);
        let result = session.mine(&mut SpyBackend { executes: 0 }).unwrap();
        assert!(result.total_frequent() > 0);
    }

    #[test]
    fn deadline_within_tightens_but_never_loosens() {
        let tight = CancelToken::new().deadline_within(Duration::ZERO);
        let still_tight = tight.deadline_within(Duration::from_secs(3600));
        assert!(
            still_tight.is_cancelled(),
            "a later deadline must not loosen"
        );
        let loose = CancelToken::new().deadline_within(Duration::from_secs(3600));
        assert!(!loose.is_cancelled());
        assert!(loose.deadline().is_some());
    }

    #[test]
    fn co_session_cancellation_fails_the_whole_batch() {
        let shared = Arc::new(db());
        let fast = MinerConfig {
            alpha: 0.01,
            max_level: Some(2),
            ..Default::default()
        };
        let deep = MinerConfig {
            alpha: 0.001,
            max_level: Some(3),
            ..Default::default()
        };
        let mut group = MiningSession::builder_shared(Arc::clone(&shared))
            .config(fast)
            .config(deep)
            .build();
        let token = CancelToken::new();
        token.cancel();
        group.set_cancel_token(Some(token));
        let mut spy = SpyBackend { executes: 0 };
        let err = group.co_mine(&mut spy).unwrap_err();
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 0);
        // Clearing recovers the parked batch plan.
        group.set_cancel_token(None);
        let results = group.co_mine(&mut spy).unwrap();
        assert_eq!(results.len(), 2);
    }

    /// Records the (level, candidate count) of every request it executes.
    struct SizeSpy(Vec<(usize, usize)>);

    impl Executor for SizeSpy {
        fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
            self.0.push((req.level(), req.candidates()));
            Ok(req
                .compiled()
                .count(req.stream(), &mut crate::engine::CountScratch::new()))
        }
    }

    #[test]
    fn a_one_member_session_never_builds_a_union() {
        let db = db();
        let mut session = MiningSession::builder(&db)
            .config(MinerConfig {
                alpha: 0.0001,
                ..Default::default()
            })
            .build();
        let mut spy = SizeSpy(Vec::new());
        let result = session.mine(&mut spy).unwrap();
        assert!(result.levels.len() > 1, "the loop must reach level 2");
        // Every scan saw exactly the member's own candidate set.
        let own: Vec<(usize, usize)> = result
            .levels
            .iter()
            .map(|l| (l.level, l.candidates))
            .collect();
        assert_eq!(spy.0, own);
    }

    #[test]
    fn a_batch_wider_than_one_member_word_mines_every_member_exactly() {
        // 70 members: member sets span two 64-bit words per lattice row.
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBAC".repeat(20)).unwrap();
        let configs: Vec<MinerConfig> = (0..70)
            .map(|i| MinerConfig {
                alpha: 0.02 * (i % 7) as f64,
                max_level: Some(1 + i % 4),
                distinct_items_only: i % 3 != 0,
            })
            .collect();
        let mut group = MiningSession::builder(&db)
            .configs(configs.iter().copied())
            .build();
        let results = group.co_mine(&mut SpyBackend { executes: 0 }).unwrap();
        for (config, got) in configs.iter().zip(&results) {
            let solo = Miner::new(*config)
                .mine(&db, &mut SequentialBackend::default())
                .unwrap();
            assert_eq!(*got, solo, "{config:?}");
        }
    }

    #[test]
    fn set_configs_retargets_one_plan_to_any_member_list() {
        // One session, re-targeted across member lists of 1 to 3 configs
        // (mixed α, level bounds and generation rules), mines each list
        // exactly like fresh serial mining, on the same compiled buffers.
        let db =
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBACAAB".repeat(40)).unwrap();
        let cfg = |alpha, max_level, distinct_items_only| MinerConfig {
            alpha,
            max_level,
            distinct_items_only,
        };
        let lists = [
            vec![cfg(0.01, Some(3), true)],
            vec![cfg(0.002, Some(4), false), cfg(0.05, None, true)],
            vec![
                cfg(0.05, Some(2), true),
                cfg(0.0, Some(1), false),
                cfg(0.01, Some(3), false),
            ],
            vec![cfg(0.002, Some(4), false)],
        ];
        let mut session = MiningSession::builder(&db).build();
        let mut compiled_at = None;
        for configs in &lists {
            session.set_configs(configs.iter().copied());
            assert_eq!(session.configs().len(), configs.len());
            let results = session.co_mine(&mut SpyBackend { executes: 0 }).unwrap();
            for (config, got) in configs.iter().zip(&results) {
                let solo = Miner::new(*config)
                    .mine(&db, &mut SequentialBackend::default())
                    .unwrap();
                assert_eq!(*got, solo, "{config:?}");
            }
            let at = session.compiled() as *const CompiledCandidates;
            assert_eq!(*compiled_at.get_or_insert(at), at, "buffers moved");
        }
        // An empty list leaves one default member, as the builder does.
        session.set_configs([]);
        let default = MinerConfig::default();
        let [only] = session.configs() else {
            panic!("expected one member, got {:?}", session.configs());
        };
        assert_eq!(
            (only.alpha, only.max_level, only.distinct_items_only),
            (
                default.alpha,
                default.max_level,
                default.distinct_items_only
            )
        );
    }

    /// A session mined with the strategy-dispatching executor, plus whether
    /// its cached index built position lists.
    fn auto_mined(db: &EventDb, config: MinerConfig) -> (MiningResult, bool) {
        let mut session = MiningSession::builder(db).config(config).build();
        let result = session.mine(&mut AutoBackend).unwrap();
        let index = session.vertical.get().expect("level 1 builds the index");
        (result, index.has_positions())
    }

    #[test]
    fn occurrence_positions_are_built_only_when_a_level_probes_them() {
        let config = MinerConfig {
            alpha: 0.0,
            max_level: Some(3),
            ..Default::default()
        };
        let sequential =
            |db: &EventDb| Miner::new(config).mine(db, &mut SequentialBackend::default());

        // Uniform letters: every level >= 2 dispatches to the bitmask scan,
        // so the cached index keeps its counts and never scatters positions.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let uniform: Vec<u8> = (0..12_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 26) as u8
            })
            .collect();
        let db = EventDb::new(Alphabet::latin26(), uniform).unwrap();
        let (result, positions) = auto_mined(&db, config);
        assert_eq!(result.levels.len(), 3);
        assert_eq!(result.levels[2].candidates, 26 * 25 * 24);
        assert!(!positions, "no level probed, yet positions were built");
        assert_eq!(result, sequential(&db).unwrap());

        // A sparse stream (rare letters between long runs of one symbol):
        // level 2 reads the pair table, vertical wins at level 3, and its
        // probes build the positions.
        let sparse: String = (0..40)
            .map(|i| format!("{}{}", "A".repeat(60), &"BCDEFG"[i % 5..i % 5 + 2]))
            .collect();
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &sparse).unwrap();
        let (result, positions) = auto_mined(&db, config);
        assert_eq!(result.levels.len(), 3);
        assert!(positions, "a vertical level must build the positions");
        assert_eq!(result, sequential(&db).unwrap());
    }

    /// The paper's Fig. 3 FSM with a `usize` state, sharing no code with the
    /// engine: the oracle for episodes as long as the `u8` state allows.
    fn wide_state_count(stream: &[u8], items: &[u8]) -> u64 {
        let (mut state, mut count) = (0usize, 0u64);
        for &c in stream {
            if c == items[state] {
                state += 1;
                if state == items.len() {
                    count += 1;
                    state = 0;
                }
            } else {
                state = usize::from(c == items[0]);
            }
        }
        count
    }

    #[test]
    fn episodes_count_exactly_up_to_the_state_cap_and_longer_levels_are_refused() {
        // A periodic stream (period 12) keeps 12 frequent episodes at every
        // level: its own windows, which repeat items.
        let text = "ABCABDBACAAB".repeat(40);
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &text).unwrap();
        let config = MinerConfig {
            alpha: 0.002,
            max_level: None,
            distinct_items_only: false,
        };
        let err = Miner::new(config).mine(&db, &mut AutoBackend).unwrap_err();
        assert_eq!(err.level, MAX_EPISODE_LEVEL + 1);
        assert_eq!(
            err.source,
            BackendError::EpisodeTooLong {
                level: 257,
                max: 256
            }
        );
        assert!(err.to_string().contains("257"), "{err}");

        let capped = MinerConfig {
            max_level: Some(MAX_EPISODE_LEVEL),
            ..config
        };
        let result = Miner::new(capped).mine(&db, &mut AutoBackend).unwrap();
        assert_eq!(result.levels.len(), MAX_EPISODE_LEVEL);
        let stream = db.symbols();
        for level in &result.levels[254..] {
            // The oracle's frequent set: every distinct window of the level's
            // length, with its wide-state count.
            let mut want: Vec<(Vec<u8>, u64)> = stream
                .windows(level.level)
                .map(|w| (w.to_vec(), wide_state_count(stream, w)))
                .filter(|&(_, count)| support(count, stream.len()) > config.alpha)
                .collect();
            want.sort();
            want.dedup();
            let mut got: Vec<(Vec<u8>, u64)> = level
                .frequent
                .iter()
                .map(|(e, count)| (e.items().to_vec(), *count))
                .collect();
            got.sort();
            assert_eq!(want.len(), 12, "level {}", level.level);
            assert_eq!(level.candidates, 12, "level {}", level.level);
            assert_eq!(got, want, "level {}", level.level);
        }
    }

    #[test]
    fn a_reused_session_reads_level_two_from_the_table_its_first_mine_built() {
        let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBAC".repeat(30)).unwrap();
        let config = MinerConfig {
            alpha: 0.01,
            max_level: Some(2),
            ..Default::default()
        };
        let mut session = MiningSession::builder(&db).config(config).build();
        session.mine(&mut AutoBackend).unwrap();
        let index = Arc::clone(session.vertical.get().expect("level 1 builds the index"));
        let table = index
            .pair_table()
            .expect("level 2 builds the table")
            .as_ptr();

        // A new α re-targets the same plan: its level 2 reads the same table.
        let next = MinerConfig {
            alpha: 0.02,
            ..config
        };
        session.set_configs([next]);
        let second = session.mine(&mut AutoBackend).unwrap();
        let reused = session.vertical.get().unwrap();
        assert!(Arc::ptr_eq(&index, reused), "the index was rebuilt");
        assert_eq!(
            reused.pair_table().map(<[u32]>::as_ptr),
            Some(table),
            "the pair table was rebuilt"
        );
        assert!(!reused.has_positions(), "level 2 probed instead of reading");
        assert_eq!(second.levels.len(), 2);
        let serial = Miner::new(next).mine(&db, &mut SequentialBackend::default());
        assert_eq!(second, serial.unwrap());
    }
}
