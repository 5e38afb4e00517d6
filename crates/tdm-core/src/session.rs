//! The plan/execute counting API: compile once per level, execute many times.
//!
//! The paper's central systems lesson — echoed by later GPU mining systems
//! like Everest and Mayura — is that counting dominates mining and must be
//! *staged*: candidate layout, launch geometry, and per-level buffer reuse are
//! planning decisions, separate from the backend that executes the scan. This
//! module is that seam:
//!
//! * [`MiningSession`] — the **plan** side. Built from `&EventDb` + one
//!   [`MinerConfig`] via [`MiningSession::builder`], it owns the
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
//! session; a caller that wants each level as it finishes drives the session
//! itself through [`MiningSession::mine_with`].
//!
//! A session mines **one** configuration over its one stream snapshot, as
//! paper Algorithm 1 does: one join, one compile and one executor scan per
//! level. The level loop keeps its candidates in one flat lattice per mine
//! (Patnaik et al.'s flat layouts): each level-`k` row holds its `k` items
//! and links to its prefix and suffix parents in level `k − 1`, both
//! frequent. The rows are exactly the level's candidate set, in
//! lexicographic order; they compile straight into the session's buffers,
//! and the loop reads their counts in place against an integer threshold
//! (the least count whose support exceeds α). An [`Episode`] is built only
//! for a frequent row of the reply.
//!
//! Sessions come in two ownership shapes. [`MiningSession::builder`] borrows
//! the database (`MiningSession<'db>`), right for scoped use. A **serving**
//! layer instead plans one session per request on a thread of its own and
//! shares the rest across tenants: [`MiningSession::builder_shared`] takes
//! `Arc<EventDb>` and yields a `MiningSession<'static>`,
//! [`MiningSessionBuilder::with_pool`] attaches an externally owned
//! `Arc<Pool>` instead of spawning a private one — any number of concurrent
//! sessions multiplex their scan jobs over the same threads — and
//! [`MiningSessionBuilder::with_index`] hands every session over one database
//! the same [`OccurrenceIndex`] (see the `tdm-serve` crate).
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
use crate::stats::{min_frequent_count, LevelResult, MiningResult};
use std::sync::OnceLock;
use tdm_mapreduce::pool::{default_workers, Pool};

/// Appearance counts, one per candidate episode in compiled order.
pub type Counts = Vec<u64>;

/// How a session holds its database: borrowed for scoped use, or shared
/// behind an `Arc` so the session has no borrowed lifetime and can move to
/// another thread (the serving configuration).
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
/// ([`MiningSession::mine_with`]) **between** level scans: an abandoned request stops before compiling or counting its
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
/// `segment::SegmentScan::end_state` are all `u8`). A longer level is
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
    /// every level of the loop shares the one build — or the shared index
    /// the session was built with
    /// ([`MiningSessionBuilder::with_index`]). Vertical-strategy executors and
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

/// Builder for a [`MiningSession`]: set its [`config`](Self::config) (the
/// default is [`MinerConfig::default`]), then [`build`](Self::build).
#[derive(Debug)]
pub struct MiningSessionBuilder<'db> {
    db: DbHandle<'db>,
    config: MinerConfig,
    workers: usize,
    pool: Option<Arc<Pool>>,
    index: Option<Arc<OccurrenceIndex>>,
}

impl<'db> MiningSessionBuilder<'db> {
    /// Sets the mining configuration (support threshold, level bound, …)
    /// the session mines over its stream. A second call replaces the first.
    pub fn config(mut self, config: MinerConfig) -> Self {
        self.config = config;
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

    /// Counts against `index`, an [`OccurrenceIndex`] shared with whoever
    /// else holds it, instead of building the session's own on first use.
    /// A serving layer keeps one index per database, and every request's
    /// session reads it, so its pair table and position lists are built
    /// once for all of them. `index` must describe the database's stream;
    /// [`build`](MiningSessionBuilder::build) drops one of another length,
    /// and the session builds its own on first use.
    pub fn with_index(mut self, index: Arc<OccurrenceIndex>) -> Self {
        self.index = Some(index);
        self
    }

    /// Builds the session: snapshots the stream **once** (a refcount bump on
    /// the database's own shared buffer, never a byte copy) and fixes the
    /// database shard bounds. Without [`with_pool`], the
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
        let stream = self.db.get().symbols_shared();
        // An append-only stream never changes in place, so an index describes
        // it iff their lengths agree.
        let index = self.index.filter(|ix| ix.stream_len() == stream.len());
        let pool = match self.pool {
            Some(pool) => PoolSlot::Shared(pool),
            None => PoolSlot::Owned {
                workers,
                cell: OnceLock::new(),
            },
        };
        MiningSession {
            shard_bounds: shard_bounds(stream.len(), workers),
            db: self.db,
            stream,
            config: self.config,
            compiled: Arc::new(CompiledCandidates::default()),
            vertical: index.map_or_else(OnceLock::new, OnceLock::from),
            workers,
            pool,
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
/// database shard bounds, and the persistent worker pool — for the one
/// configuration it mines.
///
/// One session serves any number of executors; the compiled buffers are
/// recompiled **in place** exactly once per level (`Arc::make_mut` — workers
/// drop their handles at the end of each execute, so the steady state never
/// copies). Results are **bit-identical** to the serial miner whatever the
/// executor, worker count or shared index. See the [module docs](self) for
/// the full picture.
///
/// ```
/// use std::sync::Arc;
/// use tdm_core::miner::{Miner, MinerConfig, SequentialBackend};
/// use tdm_core::session::MiningSession;
/// use tdm_core::{Alphabet, EventDb};
///
/// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCD".repeat(60)).unwrap());
/// let config = MinerConfig { alpha: 0.001, max_level: Some(3), ..Default::default() };
///
/// let mut session = MiningSession::builder_shared(Arc::clone(&db)).config(config).build();
/// let result = session.mine(&mut SequentialBackend::default()).unwrap();
///
/// // Bit-identical to the serial miner.
/// let serial = Miner::new(config).mine(&db, &mut SequentialBackend::default()).unwrap();
/// assert_eq!(result, serial);
/// // Three levels deep at most, and exactly one compile+scan per level.
/// assert_eq!(session.compiles(), result.levels.len());
/// ```
pub struct MiningSession<'db> {
    db: DbHandle<'db>,
    stream: Arc<[u8]>,
    /// The configuration the level loop mines.
    config: MinerConfig,
    compiled: Arc<CompiledCandidates>,
    /// Per-symbol occurrence index over `stream`: the shared one the builder
    /// was given, or built lazily by the first strategy-dispatching execute,
    /// and reused for the session's whole lifetime (levels recompile, the
    /// stream never changes); its position lists wait for the first vertical
    /// probe and its pair table for the first level-2 read.
    vertical: OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: Vec<usize>,
    workers: usize,
    pool: PoolSlot,
    /// Cooperative cancellation for the level loop; checked before each
    /// level's compile+scan. `None` (the default) never cancels.
    cancel: Option<CancelToken>,
    compiles: usize,
}

impl std::fmt::Debug for MiningSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningSession")
            .field("db_len", &self.db.get().len())
            .field("config", &self.config)
            .field("workers", &self.workers)
            .field("compiles", &self.compiles)
            .finish()
    }
}

impl<'db> MiningSession<'db> {
    /// Starts building a session over a borrowed `db` (default config, auto
    /// workers). For a session with no borrowed lifetime — one a cache
    /// or another thread can own — see [`MiningSession::builder_shared`].
    pub fn builder(db: &'db EventDb) -> MiningSessionBuilder<'db> {
        MiningSessionBuilder {
            db: DbHandle::Borrowed(db),
            config: MinerConfig::default(),
            workers: 0,
            pool: None,
            index: None,
        }
    }

    /// Starts building a `MiningSession<'static>` that *shares ownership* of
    /// the database. Because nothing is borrowed, the built session can be
    /// stored or sent to another thread — the serving configuration
    /// (`tdm-serve`). Combine with [`MiningSessionBuilder::with_pool`] to run
    /// many such sessions over one machine-sized pool, and with
    /// [`MiningSessionBuilder::with_index`] to count them against one index.
    pub fn builder_shared(db: Arc<EventDb>) -> MiningSessionBuilder<'static> {
        MiningSessionBuilder {
            db: DbHandle::Shared(db),
            config: MinerConfig::default(),
            workers: 0,
            pool: None,
            index: None,
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

    /// The configuration the session mines.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The session's planned worker count (decomposition width: shard bounds
    /// and default chunk counts are sized to this).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Installs (or clears) the cooperative cancellation token the level loop
    /// checks before each level's compile+scan. A serving layer sets the
    /// request's token on the session it plans for that request.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// How many candidate sets this session has compiled — exactly one per
    /// counted level (the number of scans issued), regardless of how many
    /// executors ran against each. Accumulates
    /// across runs when the session is reused.
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    /// The current compiled candidate set (the last compiled level).
    pub fn compiled(&self) -> &CompiledCandidates {
        &self.compiled
    }

    /// The plan step: `compile` fills the session's reusable buffers in place
    /// (given them and the alphabet size), and the level's request borrows
    /// the result.
    fn plan(
        &mut self,
        level: usize,
        compile: impl FnOnce(&mut CompiledCandidates, usize),
    ) -> CountRequest<'_> {
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
    /// `executor` as the counting step.
    ///
    /// # Errors
    /// [`MineError`] from the first failing level.
    pub fn mine<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
    ) -> Result<MiningResult, MineError> {
        self.mine_with(executor, |_| {})
    }

    /// Like [`mine`], but invokes `on_level` with each level result as soon
    /// as that level's elimination step finishes — the streaming hook
    /// serving use-cases want (emit level-1 frequent episodes while level 2
    /// counts).
    ///
    /// The level loop runs over one flat candidate lattice: compile the
    /// level's rows, count them with one scan, eliminate in place against
    /// the integer threshold, then join the frequent rows into the next
    /// level.
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
        let db = self.db.get();
        let (n, alphabet_len) = (db.len(), db.alphabet().len());
        let config = self.config;
        let mines = |level: usize| config.max_level.is_none_or(|l| level <= l);
        // A row is frequent iff its count reaches `threshold`: the same
        // verdict as `support(count, n) > alpha`.
        let threshold = min_frequent_count(n, config.alpha);
        let mut lattice = Lattice::singletons(alphabet_len, mines(1));
        let mut result = MiningResult {
            levels: Vec::new(),
            db_len: n,
        };
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
                    compiled.recompile_rows(
                        alphabet_len,
                        lattice.level(),
                        lattice.items(),
                        lattice.repeated(),
                        lattice.anchors(),
                    )
                },
                executor,
            )?;

            // The rows' counts are read in place against the threshold; an
            // `Episode` is built only for a frequent row.
            let frequent = lattice
                .narrow(|row| counts[row] >= threshold)
                .map(|(row, items)| {
                    let episode = Episode::new(items.to_vec()).expect("lattice rows are non-empty");
                    (episode, counts[row])
                })
                .collect();
            let level_result = LevelResult {
                level,
                candidates: counts.len(),
                frequent,
            };
            on_level(&level_result);
            let joining = !level_result.frequent.is_empty() && mines(level + 1);
            result.levels.push(level_result);
            if !joining {
                break;
            }
            lattice.join(config.distinct_items_only);
            level += 1;
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{AutoBackend, Miner, SequentialBackend};
    use crate::stats::support;
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
    fn sessions_sharing_one_index_mine_every_config_exactly() {
        // One session per config (mixed α, level bounds and generation
        // rules), all counting against one shared index: each mines exactly
        // like fresh serial mining, and the index stays the one handed in.
        let db = Arc::new(
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBACAAB".repeat(40)).unwrap(),
        );
        let cfg = |alpha, max_level, distinct_items_only| MinerConfig {
            alpha,
            max_level,
            distinct_items_only,
        };
        let configs = [
            cfg(0.01, Some(3), true),
            cfg(0.002, Some(4), false),
            cfg(0.05, None, true),
            cfg(0.05, Some(2), true),
            cfg(0.0, Some(1), false),
            cfg(0.01, Some(3), false),
        ];
        let solo = |config: MinerConfig| {
            Miner::new(config)
                .mine(&db, &mut SequentialBackend::default())
                .unwrap()
        };
        let index = Arc::new(OccurrenceIndex::build(db.alphabet().len(), db.symbols()));
        for config in configs {
            let mut session = MiningSession::builder_shared(Arc::clone(&db))
                .config(config)
                .with_index(Arc::clone(&index))
                .build();
            assert_eq!(
                session.mine(&mut AutoBackend).unwrap(),
                solo(config),
                "{config:?}"
            );
            assert!(Arc::ptr_eq(session.vertical.get().unwrap(), &index));
        }
        assert!(index.has_pairs(), "level 2 read the shared table");

        // An index over another stream length is dropped at build, never
        // read.
        let short = Arc::new(OccurrenceIndex::build(26, &db.symbols()[..10]));
        let config = configs[0];
        let mut session = MiningSession::builder(&db)
            .config(config)
            .with_index(Arc::clone(&short))
            .build();
        assert_eq!(session.mine(&mut AutoBackend).unwrap(), solo(config));
        assert!(!Arc::ptr_eq(session.vertical.get().unwrap(), &short));
    }

    #[test]
    fn a_second_config_call_replaces_the_first() {
        let db = db();
        let first = MinerConfig {
            alpha: 0.5,
            ..Default::default()
        };
        let second = MinerConfig {
            alpha: 0.01,
            max_level: Some(2),
            ..Default::default()
        };
        let mut session = MiningSession::builder(&db)
            .config(first)
            .config(second)
            .build();
        assert_eq!(session.config().max_level, Some(2));
        let serial = Miner::new(second).mine(&db, &mut SequentialBackend::default());
        assert_eq!(session.mine(&mut AutoBackend).unwrap(), serial.unwrap());
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
        let db = Arc::new(
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABDBAC".repeat(30)).unwrap(),
        );
        let config = MinerConfig {
            alpha: 0.01,
            max_level: Some(2),
            ..Default::default()
        };
        let mut session = MiningSession::builder_shared(Arc::clone(&db))
            .config(config)
            .build();
        let first = session.mine(&mut AutoBackend).unwrap();
        let index = Arc::clone(session.vertical.get().expect("level 1 builds the index"));
        let table = index
            .pair_table()
            .expect("level 2 builds the table")
            .as_ptr();
        let reads_the_table = |session: &MiningSession<'_>| {
            let reused = session.vertical.get().unwrap();
            assert!(Arc::ptr_eq(&index, reused), "the index was rebuilt");
            assert_eq!(
                reused.pair_table().map(<[u32]>::as_ptr),
                Some(table),
                "the pair table was rebuilt"
            );
            assert!(!reused.has_positions(), "level 2 probed instead of reading");
        };

        // Mining again on the same session reads the same table.
        assert_eq!(session.mine(&mut AutoBackend).unwrap(), first);
        reads_the_table(&session);

        // So does a new α on another session handed the same index.
        let next = MinerConfig {
            alpha: 0.02,
            ..config
        };
        let mut other = MiningSession::builder_shared(Arc::clone(&db))
            .config(next)
            .with_index(Arc::clone(&index))
            .build();
        let second = other.mine(&mut AutoBackend).unwrap();
        reads_the_table(&other);
        assert_eq!(second.levels.len(), 2);
        let serial = Miner::new(next).mine(&db, &mut SequentialBackend::default());
        assert_eq!(second, serial.unwrap());
    }
}
