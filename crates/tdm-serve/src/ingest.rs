//! Trigger-fenced streaming ingestion: per-tenant append buffers whose
//! sealed windows are re-mined through the service.
//!
//! A live tenant does not re-mine on every appended symbol — it buffers, and
//! a **trigger** (count or age) seals the buffer into a *window*: one atomic
//! append onto the tenant's committed [`EventDb`] (epoch bump, fresh stream
//! buffer — snapshots held by in-flight requests stay valid) followed by one
//! re-mine of the grown stream. The **fence** is the exactly-once guarantee:
//!
//! * a window is sealed only while the tenant's fence is idle, and sealing
//!   raises the fence in the same lock acquisition that drains the buffer —
//!   so each appended symbol is committed into exactly one window, and each
//!   window is re-mined exactly once, never double-processed;
//! * appends that arrive while a re-mine is in flight simply buffer behind
//!   the fence and land in the **next** window (the next trigger evaluation
//!   seals them);
//! * the fence drops when the window's re-mine returns — on success *or*
//!   failure, so a failed backend never wedges a tenant.
//!
//! Re-mines go through [`MiningService::submit`], the path and index cache
//! interactive requests take: tenants over the same stream content share the
//! database's cached occurrence index, pair table included.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tdm_core::{CoreError, EventDb, MinerConfig};

use crate::service::{bump, MiningRequest, MiningResponse, MiningService, ServeError};

/// The longest stream a tenant may grow to, in letters: committed stream and
/// pending buffer together. [`StreamIngest::append`] refuses an append past
/// it ([`IngestError::StreamFull`]), so a stream's memory, and the copy and
/// hash each seal makes of it, stay bounded for the life of the server. It
/// also caps a wire stream's `"flush_count"`: a count trigger above it could
/// never fire.
pub const MAX_STREAM_LEN: usize = 4_000_000;

/// When a tenant's buffered appends are sealed into a window and re-mined.
/// Both triggers may be armed at once; whichever fires first seals.
#[derive(Debug, Clone, Copy)]
pub struct IngestTriggers {
    /// Seal once this many symbols are buffered (0 disables the count
    /// trigger; the age trigger must then be armed, or
    /// [`StreamIngest::register`] refuses the stream).
    pub flush_count: usize,
    /// Seal once the oldest buffered symbol is this old. Age is checked on
    /// each [`StreamIngest::append`] (there is no background thread), so an
    /// aged buffer seals with the next append; `ZERO` disables the age
    /// trigger.
    pub flush_age: Duration,
}

impl Default for IngestTriggers {
    fn default() -> Self {
        IngestTriggers {
            flush_count: 256,
            flush_age: Duration::ZERO,
        }
    }
}

/// The trigger/fence state machine's in-flight marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fence {
    /// No re-mine in flight: the next fired trigger may seal a window.
    Idle,
    /// Window `window`'s re-mine is in flight: appends buffer behind the
    /// fence and land in the next window.
    InFlight { window: u64 },
}

/// One tenant's streaming state: the committed epoch-versioned database, the
/// pending buffer, and the fence.
#[derive(Debug)]
struct Tenant {
    db: Arc<EventDb>,
    config: MinerConfig,
    triggers: IngestTriggers,
    pending: Vec<u8>,
    /// When the oldest symbol of `pending` arrived (the age trigger's clock).
    buffered_at: Option<Instant>,
    fence: Fence,
    windows_sealed: u64,
}

impl Tenant {
    fn count_trigger_fired(&self) -> bool {
        self.triggers.flush_count > 0 && self.pending.len() >= self.triggers.flush_count
    }

    fn age_trigger_fired(&self) -> bool {
        !self.triggers.flush_age.is_zero()
            && self
                .buffered_at
                .is_some_and(|t| t.elapsed() >= self.triggers.flush_age)
    }

    /// Seals the pending buffer into window N: drains the buffer, commits it
    /// onto the database (epoch bump, snapshots stay valid), and raises the
    /// fence — all under the caller's lock, so no symbol can land in two
    /// windows and no window can seal twice.
    fn seal(&mut self) -> SealedWindow {
        let batch = std::mem::take(&mut self.pending);
        self.buffered_at = None;
        let mut grown = EventDb::clone(&self.db);
        grown
            .extend(&batch)
            .expect("symbols validated at append time");
        self.db = Arc::new(grown);
        let window = self.windows_sealed;
        self.windows_sealed += 1;
        self.fence = Fence::InFlight { window };
        SealedWindow {
            window,
            snapshot: Arc::clone(&self.db),
            config: self.config,
            symbols: batch.len(),
            epoch: self.db.epoch(),
        }
    }
}

/// A sealed window, carried out of the lock to its (single) re-mine.
struct SealedWindow {
    window: u64,
    snapshot: Arc<EventDb>,
    config: MinerConfig,
    symbols: usize,
    epoch: u64,
}

/// What happened to an [`StreamIngest::append`].
#[derive(Debug)]
pub enum AppendOutcome {
    /// The symbols were buffered; no trigger fired, or a re-mine was in
    /// flight (fenced) and they will land in the next window.
    Buffered {
        /// Symbols now pending for the tenant.
        pending: usize,
        /// True when a trigger had fired but the fence deferred sealing to
        /// the next window.
        deferred: bool,
    },
    /// The append fired a trigger: the window was sealed and re-mined.
    Flushed(FlushReport),
}

/// One sealed-and-re-mined window.
#[derive(Debug)]
pub struct FlushReport {
    /// The window's id (consecutive per tenant, starting at 0).
    pub window: u64,
    /// The committed database's epoch after this window ([`EventDb::epoch`]).
    pub epoch: u64,
    /// Symbols the window committed.
    pub symbols: usize,
    /// The re-mine of the grown stream.
    pub response: MiningResponse,
}

/// Why an ingest call failed.
#[derive(Debug)]
pub enum IngestError {
    /// No tenant registered under that name.
    UnknownTenant(String),
    /// [`StreamIngest::register`] was called twice for one name.
    DuplicateTenant(String),
    /// The tenant's database carries timestamps; the symbol-only append path
    /// cannot grow it.
    TimedStream(String),
    /// The tenant's triggers are both disabled (`flush_count` 0 and a zero
    /// `flush_age`): no window would ever seal, and its buffer would grow
    /// without bound.
    NoTrigger(String),
    /// The seed or an append would take the tenant's stream past
    /// [`MAX_STREAM_LEN`] letters; nothing was registered or buffered.
    StreamFull(String),
    /// A core-layer validation failed (e.g. an appended symbol outside the
    /// tenant's alphabet); nothing was buffered.
    Core(CoreError),
    /// The window's re-mine failed in the service; the window is still
    /// committed (its symbols are in the stream) and the fence was released.
    Serve(ServeError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            IngestError::DuplicateTenant(t) => write!(f, "tenant {t:?} already registered"),
            IngestError::TimedStream(t) => {
                write!(
                    f,
                    "tenant {t:?} has a timestamped database; streaming ingestion is symbol-only"
                )
            }
            IngestError::NoTrigger(t) => {
                write!(f, "tenant {t:?} arms no trigger; no window would ever seal")
            }
            IngestError::StreamFull(t) => write!(
                f,
                "tenant {t:?} would grow past the {MAX_STREAM_LEN}-letter stream cap"
            ),
            IngestError::Core(e) => write!(f, "append rejected: {e}"),
            IngestError::Serve(e) => write!(f, "window re-mine failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Core(e) => Some(e),
            IngestError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

/// Aggregate ingestion counters ([`StreamIngest::stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Append calls accepted (across all tenants).
    pub appends: u64,
    /// Symbols accepted into buffers.
    pub appended_symbols: u64,
    /// Appends whose fired trigger was deferred by a held fence (their
    /// symbols landed in the next window).
    pub deferred_appends: u64,
    /// Windows sealed (== committed epochs across tenants).
    pub windows_sealed: u64,
    /// Window re-mines that completed successfully.
    pub remines: u64,
}

/// The counters [`StreamIngest`] actually stores, bumped without a lock;
/// [`StreamIngest::stats`] reads them into an [`IngestStats`].
#[derive(Debug, Default)]
struct IngestCounters {
    appends: AtomicU64,
    appended_symbols: AtomicU64,
    deferred_appends: AtomicU64,
    windows_sealed: AtomicU64,
    remines: AtomicU64,
}

/// A point-in-time view of one tenant ([`StreamIngest::tenant`]).
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub struct TenantSnapshot {
    /// Symbols buffered behind the (possibly held) fence.
    pub pending: usize,
    /// Committed stream length.
    pub stream_len: usize,
    /// Windows sealed so far.
    pub windows_sealed: u64,
    /// The window id currently being re-mined, if the fence is held.
    pub in_flight_window: Option<u64>,
}

/// The streaming front door of a [`MiningService`]: registered tenants
/// append symbols, triggers seal windows, and every sealed window is
/// re-mined exactly once through the service.
///
/// ```
/// use std::sync::Arc;
/// use tdm_core::{Alphabet, EventDb, MinerConfig};
/// use tdm_serve::ingest::{AppendOutcome, IngestTriggers, StreamIngest};
/// use tdm_serve::{MiningService, ServiceConfig};
///
/// let service = Arc::new(MiningService::new(ServiceConfig { workers: 1, ..Default::default() }));
/// let ingest = StreamIngest::new(Arc::clone(&service));
/// let seed = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(30)).unwrap();
/// ingest
///     .register(
///         "sensor-7",
///         seed,
///         MinerConfig { alpha: 0.05, max_level: Some(2), ..Default::default() },
///         IngestTriggers { flush_count: 4, ..Default::default() },
///     )
///     .unwrap();
///
/// // Three symbols buffer; the fourth fires the count trigger, seals
/// // window 0 (epoch 1), and re-mines the grown stream.
/// ingest.append("sensor-7", &[0, 1, 2]).unwrap();
/// match ingest.append("sensor-7", &[0]).unwrap() {
///     AppendOutcome::Flushed(report) => {
///         assert_eq!((report.window, report.epoch, report.symbols), (0, 1, 4));
///         assert!(report.response.result.total_frequent() > 0);
///     }
///     other => panic!("count trigger should have sealed: {other:?}"),
/// }
/// ```
pub struct StreamIngest {
    service: Arc<MiningService>,
    tenants: Mutex<HashMap<String, Tenant>>,
    counters: IngestCounters,
}

impl std::fmt::Debug for StreamIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamIngest")
            .field(
                "tenants",
                &self.tenants.lock().expect("ingest tenants").len(),
            )
            .finish()
    }
}

impl StreamIngest {
    /// An ingestion front door over `service`. Re-mines are submitted
    /// through it and obey its admission gate and index cache.
    pub fn new(service: Arc<MiningService>) -> Self {
        StreamIngest {
            service,
            tenants: Mutex::new(HashMap::new()),
            counters: IngestCounters::default(),
        }
    }

    /// Registers a tenant: its seed database (the committed epoch-0 stream),
    /// the mining configuration its windows re-mine with, and its triggers.
    ///
    /// # Errors
    /// [`IngestError::DuplicateTenant`] for a name already registered;
    /// [`IngestError::TimedStream`] for a timestamped database (the append
    /// path is symbol-only); [`IngestError::NoTrigger`] when `triggers`
    /// disables both the count and the age trigger;
    /// [`IngestError::StreamFull`] for a seed longer than [`MAX_STREAM_LEN`]
    /// letters, which no append could grow.
    pub fn register(
        &self,
        name: &str,
        db: EventDb,
        config: MinerConfig,
        triggers: IngestTriggers,
    ) -> Result<(), IngestError> {
        if triggers.flush_count == 0 && triggers.flush_age.is_zero() {
            return Err(IngestError::NoTrigger(name.to_string()));
        }
        if db.times().is_some() {
            return Err(IngestError::TimedStream(name.to_string()));
        }
        if db.len() > MAX_STREAM_LEN {
            return Err(IngestError::StreamFull(name.to_string()));
        }
        let mut tenants = self.tenants.lock().expect("ingest tenants");
        if tenants.contains_key(name) {
            return Err(IngestError::DuplicateTenant(name.to_string()));
        }
        tenants.insert(
            name.to_string(),
            Tenant {
                db: Arc::new(db),
                config,
                triggers,
                pending: Vec::new(),
                buffered_at: None,
                fence: Fence::Idle,
                windows_sealed: 0,
            },
        );
        Ok(())
    }

    /// Appends symbols to a tenant's buffer and evaluates both triggers: if
    /// either has fired and the fence is idle, the window seals and re-mines
    /// **on this thread** before returning (so the caller sees the result);
    /// if one fired under a held fence, the symbols are deferred to the next
    /// window.
    ///
    /// # Errors
    /// [`IngestError::Core`] rejects out-of-alphabet symbols, and
    /// [`IngestError::StreamFull`] an append that would take the committed
    /// stream and the pending buffer past [`MAX_STREAM_LEN`] letters; neither
    /// buffers anything. [`IngestError::Serve`] reports a failed re-mine
    /// (the window's symbols are committed and the fence released — the
    /// stream is not rolled back under a sick backend).
    pub fn append(&self, tenant: &str, symbols: &[u8]) -> Result<AppendOutcome, IngestError> {
        let window = {
            let mut tenants = self.tenants.lock().expect("ingest tenants");
            let t = tenants
                .get_mut(tenant)
                .ok_or_else(|| IngestError::UnknownTenant(tenant.to_string()))?;
            let alphabet = t.db.alphabet().len();
            if let Some(&bad) = symbols.iter().find(|&&c| (c as usize) >= alphabet) {
                return Err(IngestError::Core(CoreError::SymbolOutOfRange {
                    id: bad,
                    alphabet,
                }));
            }
            if t.db.len() + t.pending.len() + symbols.len() > MAX_STREAM_LEN {
                return Err(IngestError::StreamFull(tenant.to_string()));
            }
            // The age is read before this append lands: a buffer it starts
            // is zero seconds old.
            let aged = t.age_trigger_fired();
            t.pending.extend_from_slice(symbols);
            if !t.pending.is_empty() {
                t.buffered_at.get_or_insert_with(Instant::now);
            }
            let c = &self.counters;
            bump(&c.appends, 1);
            bump(&c.appended_symbols, symbols.len() as u64);
            let fired = aged || t.count_trigger_fired();
            if !fired || t.fence != Fence::Idle {
                if fired {
                    bump(&c.deferred_appends, 1);
                }
                return Ok(AppendOutcome::Buffered {
                    pending: t.pending.len(),
                    deferred: fired,
                });
            }
            bump(&c.windows_sealed, 1);
            t.seal()
        };
        Ok(AppendOutcome::Flushed(self.remine(tenant, window)?))
    }

    /// The one re-mine of a sealed window. Runs outside the tenants lock —
    /// concurrent appends buffer behind the fence meanwhile — and releases
    /// the fence when the service returns, success or failure.
    fn remine(&self, tenant: &str, sealed: SealedWindow) -> Result<FlushReport, IngestError> {
        let request = MiningRequest::new(Arc::clone(&sealed.snapshot), sealed.config);
        let outcome = self.service.submit(&request);
        {
            let mut tenants = self.tenants.lock().expect("ingest tenants");
            if let Some(t) = tenants.get_mut(tenant) {
                debug_assert_eq!(
                    t.fence,
                    Fence::InFlight {
                        window: sealed.window
                    }
                );
                t.fence = Fence::Idle;
            }
        }
        let response = outcome.map_err(IngestError::Serve)?;
        bump(&self.counters.remines, 1);
        Ok(FlushReport {
            window: sealed.window,
            epoch: sealed.epoch,
            symbols: sealed.symbols,
            response,
        })
    }

    /// A point-in-time view of one tenant, or `None` if unregistered.
    #[cfg(test)]
    pub fn tenant(&self, name: &str) -> Option<TenantSnapshot> {
        let tenants = self.tenants.lock().expect("ingest tenants");
        tenants.get(name).map(|t| TenantSnapshot {
            pending: t.pending.len(),
            stream_len: t.db.len(),
            windows_sealed: t.windows_sealed,
            in_flight_window: match t.fence {
                Fence::Idle => None,
                Fence::InFlight { window } => Some(window),
            },
        })
    }

    /// A shared handle to a tenant's committed database snapshot (the stream
    /// as of the last sealed window; pending symbols are not in it).
    #[cfg(test)]
    pub fn snapshot(&self, name: &str) -> Option<Arc<EventDb>> {
        let tenants = self.tenants.lock().expect("ingest tenants");
        tenants.get(name).map(|t| Arc::clone(&t.db))
    }

    /// Aggregate ingestion counters since construction.
    pub fn stats(&self) -> IngestStats {
        let c = &self.counters;
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        IngestStats {
            appends: read(&c.appends),
            appended_symbols: read(&c.appended_symbols),
            deferred_appends: read(&c.deferred_appends),
            windows_sealed: read(&c.windows_sealed),
            remines: read(&c.remines),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CacheOutcome, ServiceConfig};
    use tdm_core::miner::{Miner, SequentialBackend};
    use tdm_core::Alphabet;

    fn cfg() -> MinerConfig {
        MinerConfig {
            alpha: 0.05,
            max_level: Some(2),
            ..Default::default()
        }
    }

    fn seed(s: &str) -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap()
    }

    #[test]
    fn count_trigger_seals_exactly_once_and_matches_batch_mining() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(service);
        ingest
            .register(
                "t",
                seed(&"ABC".repeat(20)),
                cfg(),
                IngestTriggers {
                    flush_count: 4,
                    ..Default::default()
                },
            )
            .unwrap();

        match ingest.append("t", &[0, 1, 2]).unwrap() {
            AppendOutcome::Buffered {
                pending: 3,
                deferred: false,
            } => {}
            other => panic!("below the trigger: {other:?}"),
        }
        let report = match ingest.append("t", &[0]).unwrap() {
            AppendOutcome::Flushed(r) => r,
            other => panic!("trigger should seal: {other:?}"),
        };
        assert_eq!((report.window, report.epoch, report.symbols), (0, 1, 4));

        // The re-mine saw exactly the concatenated stream.
        let grown = ingest.snapshot("t").unwrap();
        assert_eq!(grown.len(), 64);
        let want = Miner::new(cfg())
            .mine(&grown, &mut SequentialBackend::default())
            .unwrap();
        assert_eq!(report.response.result, want);

        // The window drained: nothing pending, sealed once.
        let snap = ingest.tenant("t").unwrap();
        assert_eq!(
            (snap.pending, snap.windows_sealed, snap.in_flight_window),
            (0, 1, None)
        );
        assert_eq!(ingest.stats().windows_sealed, 1);
    }

    #[test]
    fn appends_during_a_remine_defer_to_the_next_window() {
        // One admission slot held by a blocked request: the tenant's window-0
        // re-mine queues at the gate with the fence held, so a concurrent
        // append must buffer behind the fence and land in window 1.
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            max_in_flight: 1,
            ..Default::default()
        }));
        let ingest = Arc::new(StreamIngest::new(Arc::clone(&service)));
        ingest
            .register(
                "t",
                seed(&"ABAB".repeat(20)),
                cfg(),
                IngestTriggers {
                    flush_count: 2,
                    ..Default::default()
                },
            )
            .unwrap();

        struct Gate(std::sync::mpsc::Receiver<()>);
        impl tdm_core::session::Executor for Gate {
            fn execute(
                &mut self,
                req: &tdm_core::session::CountRequest<'_>,
            ) -> Result<tdm_core::session::Counts, tdm_core::session::BackendError> {
                self.0.recv().ok();
                Ok(req
                    .compiled()
                    .count(req.stream(), &mut tdm_core::engine::CountScratch::new()))
            }
            fn name(&self) -> &str {
                "gate"
            }
        }
        let (open, held) = std::sync::mpsc::channel();
        let blocker_db = Arc::new(seed(&"XYZ".repeat(20)));

        std::thread::scope(|s| {
            {
                let service = Arc::clone(&service);
                s.spawn(move || {
                    let req = MiningRequest::new(blocker_db, cfg());
                    service.submit_with(&req, &mut Gate(held)).unwrap();
                });
            }
            while service.in_flight() == 0 {
                std::thread::yield_now();
            }
            // Window 0 seals immediately but its re-mine queues at the gate.
            let flusher = {
                let ingest = Arc::clone(&ingest);
                s.spawn(move || match ingest.append("t", &[0, 1]).unwrap() {
                    AppendOutcome::Flushed(r) => r,
                    other => panic!("trigger should seal window 0: {other:?}"),
                })
            };
            while ingest.tenant("t").unwrap().in_flight_window.is_none() {
                std::thread::yield_now();
            }

            // Fence held: this append fires the count trigger but defers.
            match ingest.append("t", &[0, 1, 0]).unwrap() {
                AppendOutcome::Buffered {
                    pending: 3,
                    deferred: true,
                } => {}
                other => panic!("fence should defer: {other:?}"),
            }

            // Dropping the sender unblocks every per-level `recv` at once.
            drop(open);
            let report = flusher.join().unwrap();
            assert_eq!((report.window, report.symbols), (0, 2));
        });

        // The deferred symbols are still pending, fence released; the next
        // append's trigger evaluation seals them with it as window 1.
        let snap = ingest.tenant("t").unwrap();
        assert_eq!((snap.pending, snap.in_flight_window), (3, None));
        let report = match ingest.append("t", &[1]).unwrap() {
            AppendOutcome::Flushed(r) => r,
            other => panic!("deferred window should seal: {other:?}"),
        };
        assert_eq!((report.window, report.epoch, report.symbols), (1, 2, 4));
        assert_eq!(ingest.stats().deferred_appends, 1);
        assert_eq!(ingest.tenant("t").unwrap().stream_len, 86);
    }

    #[test]
    fn age_trigger_seals_on_the_next_append() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(service);
        ingest
            .register(
                "slow",
                seed(&"AB".repeat(30)),
                cfg(),
                IngestTriggers {
                    flush_count: 0,
                    flush_age: Duration::from_millis(20),
                },
            )
            .unwrap();

        match ingest.append("slow", &[0, 1]).unwrap() {
            AppendOutcome::Buffered {
                pending: 2,
                deferred: false,
            } => {}
            other => panic!("a fresh buffer is not aged: {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(40));
        let report = match ingest.append("slow", &[0, 1]).unwrap() {
            AppendOutcome::Flushed(r) => r,
            other => panic!("an aged buffer seals on append: {other:?}"),
        };
        assert_eq!((report.window, report.epoch, report.symbols), (0, 1, 4));
        assert_eq!(ingest.tenant("slow").unwrap().pending, 0);
        assert_eq!(ingest.stats().windows_sealed, 1);
    }

    #[test]
    fn same_content_tenants_share_the_cached_index() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 2,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(Arc::clone(&service));
        // Two tenants over identical stream content (different configs):
        // their window-0 re-mines share a db hash, so the second counts
        // against the index (and the pair table) the first one cached.
        let deep = MinerConfig {
            alpha: 0.01,
            max_level: Some(3),
            ..Default::default()
        };
        for (name, config) in [("a", cfg()), ("b", deep)] {
            ingest
                .register(
                    name,
                    seed(&"ABCABD".repeat(40)),
                    config,
                    IngestTriggers {
                        flush_count: 1,
                        ..Default::default()
                    },
                )
                .unwrap();
        }
        let mut outcomes = Vec::new();
        for name in ["a", "b"] {
            match ingest.append(name, &[0]).unwrap() {
                AppendOutcome::Flushed(r) => outcomes.push(r.response.stats.cache),
                other => panic!("count trigger should seal: {other:?}"),
            }
        }
        assert_eq!(outcomes, [CacheOutcome::Miss, CacheOutcome::Hit]);
        assert_eq!(service.cached_databases(), 1);
        assert_eq!(ingest.stats().remines, 2);

        // Each tenant's result equals solo batch mining.
        for (name, config) in [("a", cfg()), ("b", deep)] {
            let db = ingest.snapshot(name).unwrap();
            let want = Miner::new(config)
                .mine(&db, &mut SequentialBackend::default())
                .unwrap();
            let resp = service.submit(&MiningRequest::new(db, config)).unwrap();
            assert_eq!(resp.result, want, "tenant {name}");
        }
    }

    #[test]
    fn validation_errors_reject_without_buffering() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(service);
        ingest
            .register("t", seed("ABAB"), cfg(), IngestTriggers::default())
            .unwrap();

        assert!(matches!(
            ingest.append("ghost", &[0]),
            Err(IngestError::UnknownTenant(_))
        ));
        assert!(matches!(
            ingest.append("t", &[0, 99]),
            Err(IngestError::Core(CoreError::SymbolOutOfRange {
                id: 99,
                ..
            }))
        ));
        assert_eq!(ingest.tenant("t").unwrap().pending, 0);

        assert!(matches!(
            ingest.register("t", seed("AB"), cfg(), IngestTriggers::default()),
            Err(IngestError::DuplicateTenant(_))
        ));
        let timed = EventDb::with_times(Alphabet::latin26(), vec![0, 1], vec![1, 2]).unwrap();
        assert!(matches!(
            ingest.register("timed", timed, cfg(), IngestTriggers::default()),
            Err(IngestError::TimedStream(_))
        ));
    }

    #[test]
    fn an_append_past_the_stream_cap_is_refused_without_buffering() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(service);
        let short_of_cap = EventDb::new(Alphabet::latin26(), vec![0; MAX_STREAM_LEN - 1]).unwrap();
        let triggers = IngestTriggers {
            flush_count: 2,
            ..Default::default()
        };
        ingest.register("t", short_of_cap, cfg(), triggers).unwrap();

        // One letter short of the cap: the last letter fits.
        assert!(matches!(
            ingest.append("t", &[1]),
            Ok(AppendOutcome::Buffered { pending: 1, .. })
        ));
        // The next is refused, and neither it nor a longer batch buffers.
        for batch in [&[2][..], &[2, 3]] {
            assert!(matches!(
                ingest.append("t", batch),
                Err(IngestError::StreamFull(name)) if name == "t"
            ));
        }
        let t = ingest.tenant("t").unwrap();
        assert_eq!((t.stream_len, t.pending), (MAX_STREAM_LEN - 1, 1));
        assert_eq!(ingest.stats().appended_symbols, 1);

        // A seed past the cap could never grow, so it never registers; a
        // seed exactly at the cap does.
        let past_cap = EventDb::new(Alphabet::latin26(), vec![0; MAX_STREAM_LEN + 1]).unwrap();
        assert!(matches!(
            ingest.register("over", past_cap, cfg(), triggers),
            Err(IngestError::StreamFull(name)) if name == "over"
        ));
        assert!(ingest.tenant("over").is_none(), "nothing was registered");
        let at_cap = EventDb::new(Alphabet::latin26(), vec![0; MAX_STREAM_LEN]).unwrap();
        ingest.register("full", at_cap, cfg(), triggers).unwrap();
        assert_eq!(ingest.tenant("full").unwrap().stream_len, MAX_STREAM_LEN);
    }

    #[test]
    fn a_stream_whose_triggers_never_fire_is_refused() {
        let service = Arc::new(MiningService::new(ServiceConfig {
            workers: 1,
            ..Default::default()
        }));
        let ingest = StreamIngest::new(service);
        let never = IngestTriggers {
            flush_count: 0,
            flush_age: Duration::ZERO,
        };
        assert!(matches!(
            ingest.register("never", seed("ABAB"), cfg(), never),
            Err(IngestError::NoTrigger(name)) if name == "never"
        ));
        assert!(ingest.tenant("never").is_none(), "nothing was registered");
    }
}
