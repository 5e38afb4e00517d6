//! Cross-request co-mining: the batch-formation board (the waiting room).
//!
//! Two concurrent requests over the *same* database cannot share one session
//! — a session has one writer at a time, so each would take or plan its own
//! — yet their counting scans walk the same stream. Mayura-style co-mining
//! fuses them: the first such
//! request becomes the batch **leader**; same-database requests **join**
//! instead of mining alone. The leader then drives one
//! [`tdm_core::session::MiningSession`] with a member per configuration of
//! the batch — the same serving path a request mined alone takes as a batch
//! of one — runs the single shared union scan per level, and routes each
//! member's demultiplexed result back through its parked waiter slot. N
//! concurrent configs over one database cost ~1 scan per level instead of N.
//!
//! Batches form **before admission**: a request enters this board first and
//! only then (as a leader or a solo) takes an in-flight slot at the gate, so
//! joiners never hold a slot — the whole batch is admitted as one unit on
//! the leader's permit. That is what makes fusion *overload-first*: a
//! saturated gate (`max_in_flight` ≈ 1) is exactly when same-database
//! requests pile up behind the queued leader, and they fuse while waiting
//! instead of degrading to K serialized solo runs. A leader that is itself
//! rejected at the gate aborts its batch and shares the rejection with
//! everyone who joined while it queued.
//!
//! The board is keyed by the request's database content hash and — exactly
//! like the session cache — verified against the *full* database content
//! before a request may join: a 64-bit hash collision must never fuse two
//! tenants' scans.
//!
//! The window is bounded two ways: a leader stops collecting after
//! `window` elapses **or** as soon as the batch holds `max_batch` members
//! (whichever comes first), so saturated services form full batches without
//! paying the window latency.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tdm_core::session::MineError;
use tdm_core::stats::MiningResult;
use tdm_core::{EventDb, MinerConfig};
use tdm_mapreduce::pool::Priority;

use crate::cache::db_matches;
use crate::service::{CacheOutcome, ServeError};

/// Co-mining counters since service start (a [`crate::ServiceStats`] field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoMiningStats {
    /// Batches that closed with at least one joiner and ran a fused scan.
    pub batches: u64,
    /// Requests whose *successful* result came from a fused scan (leaders
    /// and joiners both). A failed batch counts toward `batches` and the
    /// service's `failed`, not here.
    pub fused_requests: u64,
    /// Leaders whose window elapsed with no joiner (they mined solo).
    pub solo_fallbacks: u64,
    /// Joins made while the batch leader was still **queued at the admission
    /// gate** (before it started collecting) — the waiting-room fusions that
    /// pre-admission batch formation exists for. Window joins (made during
    /// an admitted leader's formation window) are not counted here.
    pub waiting_room_joins: u64,
}

/// How long a joiner waits on its slot before concluding the delivery path is
/// gone. Generous on purpose: a fused scan takes seconds even on huge
/// databases, so two minutes of silence means the leader thread is lost in a
/// way the [`Deliveries`] drop guard could not catch (e.g. a leaked guard),
/// and blocking the joiner forever would wedge a service worker for good.
pub(crate) const DEFAULT_WAITER_TIMEOUT: Duration = Duration::from_secs(120);

/// What every member of a mined batch shares besides its own result: the
/// outcome of the batch's one session-cache lookup, the batch size, and the
/// wall time of its level loop (so a joiner can split its blocking wait into
/// queueing — window + residual — and service time).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchRun {
    pub(crate) cache: CacheOutcome,
    pub(crate) batch: usize,
    pub(crate) mine_time: Duration,
}

/// A routed member result, or why the batch could not serve it.
type Delivery = Result<(MiningResult, BatchRun), ServeError>;

/// A parked result slot: the joiner blocks on it; the leader delivers into it.
///
/// The error is a full [`ServeError`] (not just a [`MineError`]): since
/// batches form before admission, a leader rejected at the gate shares its
/// `Overloaded` rejection with every joiner through these slots.
pub(crate) struct Waiter {
    result: Mutex<Option<Delivery>>,
    done: Condvar,
}

impl Waiter {
    fn new() -> Self {
        Waiter {
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn deliver(&self, r: Delivery) {
        let mut slot = self.result.lock().expect("waiter slot");
        *slot = Some(r);
        drop(slot);
        self.done.notify_all();
    }

    /// Blocks for the routed result; returns it with the batch's shared
    /// [`BatchRun`]. Gives up after [`DEFAULT_WAITER_TIMEOUT`] rather than
    /// blocking a service worker forever.
    pub(crate) fn wait(&self) -> Delivery {
        self.wait_for(DEFAULT_WAITER_TIMEOUT)
    }

    /// [`Waiter::wait`] with an explicit deadline: if nothing is delivered
    /// within `timeout`, returns a typed [`MineError`] (backend
    /// `"co-mining-joiner"`) instead of spinning on the condvar forever.
    pub(crate) fn wait_for(&self, timeout: Duration) -> Delivery {
        let deadline = Instant::now() + timeout;
        let mut slot = self.result.lock().expect("waiter slot");
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            let now = Instant::now();
            if now >= deadline {
                let e = MineError {
                    level: 0,
                    backend: "co-mining-joiner".to_string(),
                    source: tdm_core::session::BackendError::Failed(format!(
                        "no batch result delivered within {timeout:?}; abandoning the waiter slot"
                    )),
                };
                return Err(ServeError::Mine(e));
            }
            let (reacquired, _) = self
                .done
                .wait_timeout(slot, deadline - now)
                .expect("waiter slot");
            slot = reacquired;
        }
    }
}

/// One request that joined a batch: its config, its scheduling class, and
/// the slot its routed result goes to.
pub(crate) struct JoinedMember {
    pub(crate) config: MinerConfig,
    pub(crate) priority: Priority,
    waiter: Arc<Waiter>,
}

/// The joiners a leader collected (none for a request mined alone), with
/// drop-safe delivery: every member is guaranteed an answer even if the
/// leader's executor panics mid-batch (undelivered members get a
/// [`MineError`] instead of hanging forever).
#[derive(Default)]
pub(crate) struct Deliveries {
    members: Vec<JoinedMember>,
    /// Joins made before the leader started collecting (i.e. while it was
    /// still queued at the admission gate).
    waiting_room_joins: u64,
}

impl Deliveries {
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Joins that happened in the waiting room (leader not yet collecting).
    pub(crate) fn waiting_room_joins(&self) -> u64 {
        self.waiting_room_joins
    }

    /// Member configurations, in join (= result) order.
    pub(crate) fn configs(&self) -> impl Iterator<Item = MinerConfig> + '_ {
        self.members.iter().map(|m| m.config)
    }

    /// The strongest scheduling class in the batch (fusing never
    /// deprioritizes anyone's scans).
    pub(crate) fn max_priority(&self, leader: Priority) -> Priority {
        if leader == Priority::High || self.members.iter().any(|m| m.priority == Priority::High) {
            Priority::High
        } else {
            Priority::Normal
        }
    }

    /// Routes one result per member (in join order), stamped with
    /// the batch's shared run.
    pub(crate) fn deliver_ok(&mut self, results: Vec<MiningResult>, run: BatchRun) {
        debug_assert_eq!(results.len(), self.members.len());
        // Drain only as many members as there are results: on a mismatch the
        // leftover members stay in the vec, so the drop guard fails them
        // explicitly instead of stranding their waiters forever.
        let n = results.len().min(self.members.len());
        for (member, result) in self.members.drain(..n).zip(results) {
            member.waiter.deliver(Ok((result, run)));
        }
    }

    /// The shared scan failed: every member shares the failure.
    pub(crate) fn deliver_err(&mut self, e: &MineError) {
        for member in self.members.drain(..) {
            member.waiter.deliver(Err(ServeError::Mine(e.clone())));
        }
    }

    /// The leader was rejected at the admission gate: every member of its
    /// aborted batch shares the rejection.
    pub(crate) fn deliver_rejected(mut self, pending: usize, limit: usize) {
        for member in self.members.drain(..) {
            member
                .waiter
                .deliver(Err(ServeError::Overloaded { pending, limit }));
        }
    }
}

impl Drop for Deliveries {
    fn drop(&mut self) {
        // Leader unwound without delivering (a panicking executor): fail the
        // members explicitly rather than leaving them blocked.
        if !self.members.is_empty() {
            let e = MineError {
                level: 0,
                backend: "co-mining-leader".to_string(),
                source: tdm_core::session::BackendError::Failed(
                    "batch leader aborted before delivering results".to_string(),
                ),
            };
            self.deliver_err(&e);
        }
    }
}

/// How a request enters the co-mining board.
pub(crate) enum Entry {
    /// Batching is disabled (zero window): mine as a batch of one, untouched
    /// by the board.
    Solo,
    /// This request opened a batch; call [`Batcher::collect`] with the token
    /// to gather joiners (waits out the window / fills the batch).
    Leader(u64),
    /// This request joined an open batch; block on the waiter for the routed
    /// result.
    Joined(Arc<Waiter>),
}

struct OpenBatch {
    id: u64,
    db_hash: u64,
    db: Arc<EventDb>,
    joiners: Vec<JoinedMember>,
    /// Set once the leader passed admission and started collecting. Joins
    /// made before that happened in the waiting room (the leader was still
    /// queued at the gate).
    collecting: bool,
    /// Joins made while `collecting` was still false.
    waiting_room_joins: u64,
}

struct Board {
    open: Vec<OpenBatch>,
    next_id: u64,
}

/// The batch-formation board: open batches keyed by database content hash,
/// a formation window, and a batch-size bound. See the [module docs](self).
pub(crate) struct Batcher {
    window: Duration,
    max_batch: usize,
    board: Mutex<Board>,
    /// Signalled on every join so a leader waiting for a full batch wakes as
    /// soon as the last member arrives.
    changed: Condvar,
}

impl Batcher {
    /// A board holding batches open for `window` (ZERO disables co-mining)
    /// with at most `max_batch` members each, leader included (0 =
    /// unbounded, window-only).
    pub(crate) fn new(window: Duration, max_batch: usize) -> Self {
        Batcher {
            window,
            max_batch,
            board: Mutex::new(Board {
                open: Vec::new(),
                next_id: 0,
            }),
            changed: Condvar::new(),
        }
    }

    /// True when a formation window is configured.
    pub(crate) fn enabled(&self) -> bool {
        !self.window.is_zero()
    }

    /// Batches currently holding their window open.
    pub(crate) fn open_batches(&self) -> usize {
        self.board.lock().expect("co-mining board").open.len()
    }

    /// Joiners currently parked across every open batch (requests riding a
    /// leader without holding any admission slot).
    pub(crate) fn waiting_joiners(&self) -> usize {
        self.board
            .lock()
            .expect("co-mining board")
            .open
            .iter()
            .map(|s| s.joiners.len())
            .sum()
    }

    /// Routes one arriving request — **before** it takes anything at the
    /// admission gate: join an open same-database batch with room
    /// (content-verified), or open a new one and lead it. Joiners never hold
    /// an in-flight slot; they ride their leader's.
    pub(crate) fn enter(
        &self,
        db_hash: u64,
        db: &Arc<EventDb>,
        config: MinerConfig,
        priority: Priority,
    ) -> Entry {
        if !self.enabled() {
            return Entry::Solo;
        }
        let mut board = self.board.lock().expect("co-mining board");
        if let Some(slot) = board.open.iter_mut().find(|s| {
            s.db_hash == db_hash
                && (self.max_batch == 0 || s.joiners.len() + 1 < self.max_batch)
                && db_matches(&s.db, db)
        }) {
            let waiter = Arc::new(Waiter::new());
            slot.joiners.push(JoinedMember {
                config,
                priority,
                waiter: Arc::clone(&waiter),
            });
            if !slot.collecting {
                slot.waiting_room_joins += 1;
            }
            drop(board);
            self.changed.notify_all();
            return Entry::Joined(waiter);
        }
        let id = board.next_id;
        board.next_id += 1;
        board.open.push(OpenBatch {
            id,
            db_hash,
            db: Arc::clone(db),
            joiners: Vec::new(),
            collecting: false,
            waiting_room_joins: 0,
        });
        Entry::Leader(id)
    }

    /// Leader side, called **after** passing admission: holds the batch open
    /// until the window elapses or the batch is full, then closes it and
    /// returns the joiners (possibly none). A batch that filled while the
    /// leader was queued at the gate closes immediately — no window latency
    /// under saturation.
    pub(crate) fn collect(&self, token: u64) -> Deliveries {
        let deadline = Instant::now() + self.window;
        let mut board = self.board.lock().expect("co-mining board");
        loop {
            let idx = board
                .open
                .iter()
                .position(|s| s.id == token)
                .expect("leader's batch vanished from the board");
            board.open[idx].collecting = true;
            let full = self.max_batch != 0 && board.open[idx].joiners.len() + 1 >= self.max_batch;
            let now = Instant::now();
            if full || now >= deadline {
                let slot = board.open.swap_remove(idx);
                return Deliveries {
                    members: slot.joiners,
                    waiting_room_joins: slot.waiting_room_joins,
                };
            }
            let (reacquired, _) = self
                .changed
                .wait_timeout(board, deadline - now)
                .expect("co-mining board");
            board = reacquired;
        }
    }

    /// Leader side, on a gate rejection: closes the batch *without* mining
    /// and returns whoever joined while the leader queued, so the caller can
    /// share the rejection ([`Deliveries::deliver_rejected`]) instead of
    /// stranding them until the waiter timeout.
    pub(crate) fn abort(&self, token: u64) -> Deliveries {
        let mut board = self.board.lock().expect("co-mining board");
        let idx = board
            .open
            .iter()
            .position(|s| s.id == token)
            .expect("leader's batch vanished from the board");
        let slot = board.open.swap_remove(idx);
        Deliveries {
            members: slot.joiners,
            waiting_room_joins: slot.waiting_room_joins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::Alphabet;

    fn db_of(s: &str) -> Arc<EventDb> {
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap())
    }

    fn hash_of(db: &EventDb) -> u64 {
        crate::cache::db_content_hash(db)
    }

    #[test]
    fn zero_window_is_always_solo() {
        let b = Batcher::new(Duration::ZERO, 0);
        assert!(!b.enabled());
        let db = db_of("ABAB");
        match b.enter(hash_of(&db), &db, MinerConfig::default(), Priority::Normal) {
            Entry::Solo => {}
            _ => panic!("zero window must not open batches"),
        }
        assert_eq!(b.open_batches(), 0);
    }

    #[test]
    fn leader_joiner_handshake_routes_results() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 2));
        let db = db_of("ABCABC");
        let h = hash_of(&db);
        let Entry::Leader(token) = b.enter(h, &db, MinerConfig::default(), Priority::Normal) else {
            panic!("first request must lead");
        };
        assert_eq!(b.open_batches(), 1);
        let joiner = {
            let b = Arc::clone(&b);
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let Entry::Joined(waiter) = b.enter(h, &db, MinerConfig::default(), Priority::High)
                else {
                    panic!("second same-db request must join");
                };
                waiter.wait()
            })
        };
        // max_batch = 2: collect returns as soon as the joiner arrives — no
        // window sleep.
        let mut joiners = b.collect(token);
        assert_eq!(joiners.len(), 1);
        assert_eq!(joiners.max_priority(Priority::Normal), Priority::High);
        assert_eq!(b.open_batches(), 0);
        let result = MiningResult {
            levels: Vec::new(),
            db_len: db.len(),
        };
        let run = BatchRun {
            cache: CacheOutcome::Miss,
            batch: 2,
            mine_time: Duration::from_millis(7),
        };
        joiners.deliver_ok(vec![result.clone()], run);
        let (routed, run) = joiner.join().unwrap().unwrap();
        assert_eq!(routed, result);
        assert_eq!(run.mine_time, Duration::from_millis(7));
    }

    #[test]
    fn different_content_with_forced_hash_never_joins() {
        let b = Batcher::new(Duration::from_secs(5), 0);
        let a = db_of("ABCABC");
        let other = db_of("CBACBA"); // same length/alphabet, different content
        let h = hash_of(&a);
        let Entry::Leader(token) = b.enter(h, &a, MinerConfig::default(), Priority::Normal) else {
            panic!("first request must lead");
        };
        // A forged/colliding key: the other database presented under A's
        // hash must open its own batch, not fuse with A's.
        match b.enter(h, &other, MinerConfig::default(), Priority::Normal) {
            Entry::Leader(_) => {}
            _ => panic!("content verification must reject the collision"),
        }
        assert_eq!(b.open_batches(), 2);
        let joiners = b.collect(token);
        assert!(joiners.is_empty());
    }

    #[test]
    fn full_batches_spill_to_a_new_leader() {
        let b = Batcher::new(Duration::from_secs(5), 2);
        let db = db_of("XYXY");
        let h = hash_of(&db);
        let Entry::Leader(_) = b.enter(h, &db, MinerConfig::default(), Priority::Normal) else {
            panic!("lead");
        };
        let Entry::Joined(_) = b.enter(h, &db, MinerConfig::default(), Priority::Normal) else {
            panic!("join");
        };
        // Batch of 2 is full: the third same-db request leads a fresh batch.
        match b.enter(h, &db, MinerConfig::default(), Priority::Normal) {
            Entry::Leader(_) => {}
            _ => panic!("full batch must spill"),
        }
        assert_eq!(b.open_batches(), 2);
    }

    #[test]
    fn dropped_deliveries_fail_members_instead_of_hanging() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 2));
        let db = db_of("ABAB");
        let h = hash_of(&db);
        let Entry::Leader(token) = b.enter(h, &db, MinerConfig::default(), Priority::Normal) else {
            panic!("lead");
        };
        let joiner = {
            let b = Arc::clone(&b);
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let Entry::Joined(waiter) =
                    b.enter(h, &db, MinerConfig::default(), Priority::Normal)
                else {
                    panic!("join");
                };
                waiter.wait()
            })
        };
        let joiners = b.collect(token);
        assert_eq!(joiners.len(), 1);
        drop(joiners); // leader "panicked": members must still get an answer
        let ServeError::Mine(err) = joiner.join().unwrap().unwrap_err() else {
            panic!("a dropped delivery must surface as a mining error");
        };
        assert_eq!(err.backend, "co-mining-leader");
    }

    #[test]
    fn aborted_batches_share_the_gate_rejection() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 0));
        let db = db_of("ABAB");
        let h = hash_of(&db);
        let Entry::Leader(token) = b.enter(h, &db, MinerConfig::default(), Priority::Normal) else {
            panic!("lead");
        };
        let joiner = {
            let b = Arc::clone(&b);
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let Entry::Joined(waiter) =
                    b.enter(h, &db, MinerConfig::default(), Priority::Normal)
                else {
                    panic!("join");
                };
                waiter.wait()
            })
        };
        // Wait for the joiner to be parked before aborting.
        while b.waiting_joiners() == 0 {
            std::thread::yield_now();
        }
        let joiners = b.abort(token);
        assert_eq!(joiners.len(), 1);
        // The joiner arrived before any collect() call, i.e. while the
        // leader was still queued at the gate.
        assert_eq!(joiners.waiting_room_joins(), 1);
        assert_eq!(b.open_batches(), 0);
        joiners.deliver_rejected(9, 4);
        let ServeError::Overloaded { pending, limit } = joiner.join().unwrap().unwrap_err() else {
            panic!("an aborted batch must share the leader's Overloaded rejection");
        };
        assert_eq!((pending, limit), (9, 4));
    }

    #[test]
    fn waiter_gives_up_on_a_never_delivering_board() {
        // A waiter whose leader never delivers (and whose Deliveries guard
        // never fires) must time out with a typed error, not block forever.
        let w = Waiter::new();
        let result = w.wait_for(Duration::from_millis(20));
        let ServeError::Mine(err) = result.unwrap_err() else {
            panic!("a timed-out waiter must surface as a mining error");
        };
        assert_eq!(err.backend, "co-mining-joiner");
        assert!(err.to_string().contains("no batch result delivered"));
    }

    #[test]
    fn waiter_delivery_beats_the_timeout() {
        let w = Arc::new(Waiter::new());
        let delivering = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || {
                let result = MiningResult {
                    levels: Vec::new(),
                    db_len: 4,
                };
                let run = BatchRun {
                    cache: CacheOutcome::Hit,
                    batch: 2,
                    mine_time: Duration::from_millis(3),
                };
                w.deliver(Ok((result, run)));
            })
        };
        let (result, run) = w.wait_for(Duration::from_secs(30)).unwrap();
        delivering.join().unwrap();
        assert_eq!(result.db_len, 4);
        assert_eq!(run.mine_time, Duration::from_millis(3));
    }

    #[test]
    fn window_expiry_closes_an_empty_batch() {
        let b = Batcher::new(Duration::from_millis(10), 0);
        let db = db_of("ABAB");
        let Entry::Leader(token) =
            b.enter(hash_of(&db), &db, MinerConfig::default(), Priority::Normal)
        else {
            panic!("lead");
        };
        let joiners = b.collect(token);
        assert!(joiners.is_empty());
        assert_eq!(b.open_batches(), 0);
    }
}
