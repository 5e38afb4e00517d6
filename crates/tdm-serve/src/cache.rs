//! The session cache: parked `MiningSession`s keyed by database content hash
//! alone — one LRU for every configuration.
//!
//! Repeated queries against the same database are the common case for a
//! mining service (dashboards refreshing, clients polling a growing stream at
//! intervals, several tenants querying one dataset with their own α). The
//! expensive part of such a query is the *plan* state — the stream snapshot,
//! the shard bounds, the occurrence index (with its level-2 pair table) and
//! the compiled candidate buffers that `MiningSession` reuses in place across
//! levels — and none of it depends on a configuration. The cache therefore
//! keeps whole owned sessions (`MiningSession<'static>`, sharing the service
//! pool) per database, and a request re-targets the session it takes to its
//! own config (`MiningSession::set_configs`): a repeat, a new α or a new
//! level bound all hit the same parked plan. A hit re-enters the level loop
//! with every buffer already allocated and warm: no session planning (no
//! stream snapshot, no shard-bound computation), no fresh allocations, and
//! level 2 read from the pair table without a stream pass. Each level's
//! candidates are still compiled, but *in place* into the parked session's
//! buffers, so the compiled-candidate storage keeps the *same address* across
//! requests, which the workspace tests assert.
//!
//! A session has one writer at a time, so a request takes its session out of
//! the cache and parks it again when it is done. Concurrent requests over one
//! database (paper-scan's two lanes, one α each) each take or plan a session
//! of their own, and every one of them is parked: a database may hold several
//! sessions, one per request that ran on it concurrently. The LRU capacity
//! counts databases, so those extra sessions ride on their database's slot
//! instead of pushing another database out.
//!
//! ## Collision safety
//!
//! The key is a 64-bit FNV-1a content hash, so two different databases *can*
//! collide. An entry is therefore only handed out after verification against
//! the requesting database — pointer equality when the client resubmits the
//! same handle, full symbol/timestamp comparison otherwise; a forged or
//! colliding key falls back to a miss instead of serving another tenant's
//! session.

use tdm_core::session::MiningSession;
use tdm_core::EventDb;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// 64-bit FNV-1a content hash of a database: alphabet size, length, the full
/// symbol stream, and the timestamps when present. Every byte of content
/// participates — equal prefixes with different tails hash differently.
pub fn db_content_hash(db: &EventDb) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &(db.alphabet().len() as u64).to_le_bytes());
    fnv1a(&mut h, &(db.len() as u64).to_le_bytes());
    fnv1a(&mut h, db.symbols());
    match db.times() {
        Some(times) => {
            fnv1a(&mut h, &[1]);
            for &t in times {
                fnv1a(&mut h, &t.to_le_bytes());
            }
        }
        None => fnv1a(&mut h, &[0]),
    }
    h
}

/// True when two databases have the same content: pointer equality as the
/// fast path, full symbol/timestamp comparison otherwise. A 64-bit hash
/// collision must never share a session.
pub(crate) fn db_matches(a: &EventDb, b: &EventDb) -> bool {
    std::ptr::eq(a, b)
        || (a.alphabet().len() == b.alphabet().len()
            && a.symbols() == b.symbols()
            && a.times() == b.times())
}

/// Counters describing the cache's behavior since service start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found and verified an entry.
    pub hits: u64,
    /// Lookups that found nothing for the key.
    pub misses: u64,
    /// Entries dropped because the cache was full.
    pub evictions: u64,
    /// Lookups whose key matched an entry that failed content verification —
    /// a 64-bit collision or a forged key. Counted as misses too.
    pub collisions: u64,
}

/// A small LRU of parked sessions keyed by database content hash. Entries
/// are **taken out** while a request uses them (a session is single-writer)
/// and parked again when it completes. See the [module docs](self).
///
/// The cache never frees a session: [`put`](SessionCache::put) hands the
/// sessions it evicts back, so the caller can drop them — often the last
/// handle on a database and its alphabet — after it releases the lock.
#[derive(Debug)]
pub(crate) struct SessionCache {
    capacity: usize,
    /// Recency order: least-recently-used first.
    entries: Vec<(u64, MiningSession<'static>)>,
    stats: CacheStats,
}

impl SessionCache {
    /// An empty cache holding the sessions of at most `capacity` databases
    /// (0 disables caching: every request plans fresh).
    pub(crate) fn new(capacity: usize) -> Self {
        SessionCache {
            capacity,
            entries: Vec::with_capacity(capacity.min(64)),
            stats: CacheStats::default(),
        }
    }

    /// Number of parked sessions.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Hands out the most recently parked session for `db` (removed while in
    /// use), whatever configs it last mined. An entry under the same hash
    /// but over other content is never handed out.
    pub(crate) fn take(&mut self, db_hash: u64, db: &EventDb) -> Option<MiningSession<'static>> {
        let mut collided = false;
        for i in (0..self.entries.len()).rev() {
            let (hash, session) = &self.entries[i];
            if *hash != db_hash {
                continue;
            }
            if db_matches(session.db(), db) {
                self.stats.hits += 1;
                return Some(self.entries.remove(i).1);
            }
            collided = true;
        }
        self.stats.misses += 1;
        self.stats.collisions += u64::from(collided);
        None
    }

    /// Parks `session` as the most-recently-used entry, evicting
    /// least-recently-used entries while more than `capacity` databases are
    /// parked, and returns the evicted sessions, least recently used first
    /// (`session` itself when caching is disabled): the caller drops them
    /// outside its lock. It never replaces another entry for the same
    /// database: that entry belongs to a request that ran concurrently, and
    /// the next concurrent pair needs both.
    pub(crate) fn put(
        &mut self,
        db_hash: u64,
        session: MiningSession<'static>,
    ) -> Vec<MiningSession<'static>> {
        if self.capacity == 0 {
            return vec![session];
        }
        self.entries.push((db_hash, session));
        let mut evicted = 0;
        while databases(&self.entries[evicted..]) > self.capacity {
            evicted += 1;
        }
        self.stats.evictions += evicted as u64;
        self.entries.drain(..evicted).map(|(_, s)| s).collect()
    }
}

/// Distinct databases (content hashes) among `entries`, counted without
/// allocating: the entries whose hash no later entry repeats.
fn databases(entries: &[(u64, MiningSession<'static>)]) -> usize {
    (0..entries.len())
        .filter(|&i| entries[i + 1..].iter().all(|e| e.0 != entries[i].0))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tdm_core::{Alphabet, MinerConfig};

    fn db_of(s: &str) -> Arc<EventDb> {
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap())
    }

    /// A parked session over `db` (its pool is spawned lazily, never here).
    fn session(db: &Arc<EventDb>, config: MinerConfig) -> MiningSession<'static> {
        MiningSession::builder_shared(Arc::clone(db))
            .config(config)
            .workers(1)
            .build()
    }

    #[test]
    fn content_hash_sees_every_byte() {
        // Equal prefixes, different tails: the hash-relevant content is the
        // whole stream, not a prefix.
        let a = db_of(&("AB".repeat(100) + "X"));
        let b = db_of(&("AB".repeat(100) + "Y"));
        assert_ne!(db_content_hash(&a), db_content_hash(&b));
        assert_eq!(db_content_hash(&a), db_content_hash(&a.clone()));
    }

    #[test]
    fn take_verifies_content_not_just_the_key() {
        let mut cache = SessionCache::new(4);
        let cfg = MinerConfig::default();
        let a = db_of("ABCABC");
        let b = db_of("CBACBA"); // same length/alphabet, different content
        let key_a = db_content_hash(&a);
        cache.put(key_a, session(&a, cfg));

        // A forged lookup: database B presented under A's key must not get
        // A's session.
        assert!(cache.take(key_a, &b).is_none());
        assert_eq!(cache.stats().collisions, 1);
        // The genuine owner still finds (and verifies) the entry.
        assert!(cache.take(key_a, &a).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn a_database_parks_one_session_per_concurrent_batch() {
        // Two requests over one database ran at once (one α each) and both
        // parked: neither replaces the other, and the next two concurrent
        // requests both hit, whatever configs they bring.
        let mut cache = SessionCache::new(4);
        let db = db_of("ABCABC");
        let key = db_content_hash(&db);
        let low = MinerConfig::default();
        let high = MinerConfig { alpha: 0.5, ..low };
        cache.put(key, session(&db, low));
        cache.put(key, session(&db, high));
        assert_eq!(cache.len(), 2);
        // Most recently parked first.
        let first = cache.take(key, &db).expect("first lane hits");
        assert_eq!(first.config().alpha, 0.5);
        assert!(cache.take(key, &db).is_some(), "second lane hits");
        assert!(cache.take(key, &db).is_none(), "both sessions are in use");
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 1));
    }

    #[test]
    fn a_databases_extra_sessions_ride_on_its_slot() {
        // Capacity 2 counts databases: a second session of A costs no slot,
        // and a third database evicts the least-recently-used entries until
        // two databases remain.
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let [a, b, c] = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let [ka, kb, kc] = [&a, &b, &c].map(|d| db_content_hash(d));
        cache.put(ka, session(&a, cfg));
        cache.put(kb, session(&b, cfg));
        cache.put(ka, session(&a, cfg));
        assert_eq!((cache.len(), cache.stats().evictions), (3, 0));
        // A's older session is the LRU entry: it goes, but A keeps its slot
        // through the newer one, so B goes too.
        cache.put(kc, session(&c, cfg));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 2));
        assert!(cache.take(kb, &b).is_none());
        assert!(cache.take(ka, &a).is_some());
        assert!(cache.take(kc, &c).is_some());
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<u64> = dbs.iter().map(|d| db_content_hash(d)).collect();
        for (k, d) in keys.iter().zip(&dbs) {
            cache.put(*k, session(d, cfg));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The first (least recently used) entry was evicted.
        assert!(cache.take(keys[0], &dbs[0]).is_none());
        assert!(cache.take(keys[2], &dbs[2]).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<u64> = dbs.iter().map(|d| db_content_hash(d)).collect();
        cache.put(keys[0], session(&dbs[0], cfg));
        cache.put(keys[1], session(&dbs[1], cfg));
        // Touch entry 0: it becomes most-recently-used.
        let e = cache.take(keys[0], &dbs[0]).unwrap();
        cache.put(keys[0], e);
        // Inserting a third evicts entry 1, not entry 0.
        cache.put(keys[2], session(&dbs[2], cfg));
        assert!(cache.take(keys[0], &dbs[0]).is_some());
        assert!(cache.take(keys[1], &dbs[1]).is_none());
    }

    #[test]
    fn put_hands_back_what_it_evicts_least_recently_used_first() {
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let [a, b, c, d] = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC"), db_of("DDDD")];
        let [ka, kb, kc, kd] = [&a, &b, &c, &d].map(|db| db_content_hash(db));
        let over = |sessions: &[MiningSession<'static>], dbs: &[&Arc<EventDb>]| {
            sessions.len() == dbs.len()
                && sessions
                    .iter()
                    .zip(dbs)
                    .all(|(s, db)| std::ptr::eq(s.db(), &***db))
        };
        assert!(cache.put(ka, session(&a, cfg)).is_empty());
        assert!(cache.put(kb, session(&b, cfg)).is_empty());
        assert!(cache.put(ka, session(&a, cfg)).is_empty());
        // C needs a slot: A's older session goes first but frees none (A's
        // newer one stays), so B goes too.
        assert!(over(&cache.put(kc, session(&c, cfg)), &[&a, &b]));
        assert!(over(&cache.put(kd, session(&d, cfg)), &[&a]));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 3));
        // Taking C's only session frees its slot: B parks without evicting.
        let taken = cache.take(kc, &c).expect("C is parked");
        assert!(cache.put(kb, session(&b, cfg)).is_empty());
        // Parking C again evicts D, the least recently used.
        assert!(over(&cache.put(kc, taken), &[&d]));
        // A disabled cache hands the session straight back.
        assert!(over(&SessionCache::new(0).put(ka, session(&a, cfg)), &[&a]));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = SessionCache::new(0);
        let a = db_of("ABAB");
        let key = db_content_hash(&a);
        cache.put(key, session(&a, MinerConfig::default()));
        assert_eq!(cache.len(), 0);
        assert!(cache.take(key, &a).is_none());
    }
}
