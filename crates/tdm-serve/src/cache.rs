//! The session cache: parked `MiningSession`s keyed by database content hash
//! and config-set fingerprint — one LRU for every batch size.
//!
//! Repeated queries against the same database and configuration are the
//! common case for a mining service (dashboards refreshing, clients polling a
//! growing stream at intervals, co-mining systems like Mayura batching
//! similar queries). The expensive part of such a query is the *plan* state —
//! the stream snapshot, the shard bounds, and above all the compiled
//! candidate buffers that `MiningSession` reuses in place across levels. The
//! cache keeps whole owned sessions (`MiningSession<'static>`, sharing the
//! service pool) between requests, so a hit re-enters the level loop with
//! every buffer already allocated and warm: no session planning (no stream
//! snapshot, no shard-bound computation) and no fresh allocations. Each
//! level's candidates are still compiled — that scan is inherent to the
//! level loop — but *in place* into the parked session's buffers, so the
//! compiled-candidate storage keeps the *same address* across requests,
//! which the workspace tests assert.
//!
//! A request mined alone is a batch of one, so solo requests and fused
//! co-mining batches share the one LRU: an entry is a session with one member
//! per configuration of its batch, keyed by the **sorted** config-set
//! fingerprint ([`group_fingerprint`]). A recurring bundle hits whatever order
//! its members arrive in, and a lone request's key is exactly its own
//! [`session_key`].
//!
//! ## Collision safety
//!
//! The key is a 64-bit FNV-1a content hash (plus a config fingerprint), so
//! two different databases *can* collide. An entry is therefore only handed
//! out after verification against the requesting database — pointer equality
//! of the `Arc` when the client resubmits the same handle, full
//! symbol/timestamp comparison otherwise — and the exact config multiset; a
//! forged or colliding key falls back to a miss instead of serving another
//! tenant's session.

use std::sync::Arc;
use tdm_core::session::MiningSession;
use tdm_core::{EventDb, MinerConfig};
use tdm_mapreduce::pool::Pool;

/// Cache key of one (database, configuration) pair: a content hash of the
/// database plus a fingerprint of every planning-relevant `MinerConfig`
/// field. The key is *probabilistic* — entries are verified against the full
/// request before being shared (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// FNV-1a hash of the database content (alphabet size, symbols,
    /// timestamps).
    pub db_hash: u64,
    /// FNV-1a hash of the mining configuration (α bits, level bound,
    /// candidate universe).
    pub config_fingerprint: u64,
}

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

/// Fingerprint of every `MinerConfig` field that shapes the plan (candidate
/// sets per level, elimination threshold): α's bit pattern, the level bound,
/// and the candidate-universe switch.
pub fn config_fingerprint(config: &MinerConfig) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &config.alpha.to_bits().to_le_bytes());
    let level = match config.max_level {
        Some(l) => l as u64 + 1,
        None => 0,
    };
    fnv1a(&mut h, &level.to_le_bytes());
    fnv1a(&mut h, &[config.distinct_items_only as u8]);
    h
}

/// The [`SessionKey`] of one request — also the key of that request mined
/// alone, as a batch of one.
pub fn session_key(db: &EventDb, config: &MinerConfig) -> SessionKey {
    SessionKey {
        db_hash: db_content_hash(db),
        config_fingerprint: config_fingerprint(config),
    }
}

/// Order-insensitive fingerprint of a *set* of configurations: the member
/// count plus every per-config [`config_fingerprint`], folded in **sorted**
/// order — except that a set of one fingerprints as its one member, so a
/// batch of one is keyed exactly like the request alone. Two batches with
/// the same configs in a different arrival order get the same fingerprint —
/// that is what lets a parked session answer a permuted batch (see
/// [`MiningSession::member_permutation`]).
pub fn group_fingerprint(configs: &[MinerConfig]) -> u64 {
    if let [only] = configs {
        return config_fingerprint(only);
    }
    let mut fps: Vec<u64> = configs.iter().map(config_fingerprint).collect();
    fps.sort_unstable();
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, &(fps.len() as u64).to_le_bytes());
    for fp in fps {
        fnv1a(&mut h, &fp.to_le_bytes());
    }
    h
}

/// True when two database handles refer to the same content: pointer
/// equality as the fast path, full symbol/timestamp comparison otherwise. A
/// 64-bit hash collision must never share a session — or a co-mining batch.
pub(crate) fn db_matches(a: &Arc<EventDb>, b: &Arc<EventDb>) -> bool {
    Arc::ptr_eq(a, b)
        || (a.alphabet().len() == b.alphabet().len()
            && a.symbols() == b.symbols()
            && a.times() == b.times())
}

/// One parked session: the owned `MiningSession<'static>` — one member per
/// configuration of the batch it was planned for — plus the exact database
/// handle it was planned over (the verification material; the member configs
/// live inside the session itself).
pub struct CachedSession {
    db: Arc<EventDb>,
    session: MiningSession<'static>,
}

impl CachedSession {
    /// Plans a fresh session for `db` with one member per entry of
    /// `configs`, in order, dispatching its scans to the shared `pool`.
    pub fn build(db: Arc<EventDb>, configs: &[MinerConfig], pool: Arc<Pool>) -> Self {
        let session = MiningSession::builder_shared(Arc::clone(&db))
            .configs(configs.iter().copied())
            .with_pool(pool)
            .build();
        CachedSession { db, session }
    }

    /// The member permutation when this entry was planned for exactly this
    /// database content and this config *multiset* (any order), `None`
    /// otherwise (see [`MiningSession::member_permutation`]).
    pub fn matches(&self, db: &Arc<EventDb>, configs: &[MinerConfig]) -> Option<Vec<usize>> {
        if !db_matches(&self.db, db) {
            return None;
        }
        self.session.member_permutation(configs)
    }

    /// The parked session, for driving a mining run.
    pub fn session_mut(&mut self) -> &mut MiningSession<'static> {
        &mut self.session
    }

    /// The session (shared view).
    pub fn session(&self) -> &MiningSession<'static> {
        &self.session
    }
}

impl std::fmt::Debug for CachedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSession")
            .field("db_len", &self.db.len())
            .field("session", &self.session)
            .finish()
    }
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

/// A small LRU map of parked sessions, one per (database, config multiset):
/// a request mined alone and a fused K-request batch are the same kind of
/// entry, keyed by (database content hash, [`group_fingerprint`] of the
/// batch's configs). Entries are **taken out** while a batch uses them (a
/// session is single-writer) and re-inserted when it completes; concurrent
/// identical batches simply miss and plan their own session, the last one
/// back wins the cache slot.
#[derive(Debug)]
pub struct SessionCache {
    capacity: usize,
    /// Recency order: least-recently-used first.
    entries: Vec<(SessionKey, CachedSession)>,
    stats: CacheStats,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (0 disables
    /// caching: every batch plans fresh).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            capacity,
            entries: Vec::with_capacity(capacity.min(64)),
            stats: CacheStats::default(),
        }
    }

    /// Number of parked sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no session is parked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, verifies the entry against the batch's database and
    /// config multiset, and hands it out (removed while in use) together with
    /// the member permutation that routes `configs`' arrival order onto the
    /// parked session's member order.
    pub fn take(
        &mut self,
        key: SessionKey,
        db: &Arc<EventDb>,
        configs: &[MinerConfig],
    ) -> Option<(CachedSession, Vec<usize>)> {
        match self.entries.iter().position(|(k, _)| *k == key) {
            Some(i) => match self.entries[i].1.matches(db, configs) {
                Some(perm) => {
                    self.stats.hits += 1;
                    Some((self.entries.remove(i).1, perm))
                }
                None => {
                    // Same 64-bit key, different content or config multiset:
                    // never share the entry.
                    self.stats.collisions += 1;
                    self.stats.misses += 1;
                    None
                }
            },
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Parks `entry` under `key` as the most-recently-used session, evicting
    /// the least-recently-used one when over capacity. Re-inserting an
    /// existing key replaces that entry (the returning batch has the fresher
    /// buffers).
    pub fn put(&mut self, key: SessionKey, entry: CachedSession) {
        if self.capacity == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        }
        self.entries.push((key, entry));
        while self.entries.len() > self.capacity {
            self.entries.remove(0);
            self.stats.evictions += 1;
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

    fn pool() -> Arc<Pool> {
        Arc::new(Pool::with_workers(1))
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
    fn config_fingerprint_separates_every_field() {
        let base = MinerConfig::default();
        let alpha = MinerConfig {
            alpha: 0.25,
            ..base
        };
        let level = MinerConfig {
            max_level: Some(2),
            ..base
        };
        let universe = MinerConfig {
            distinct_items_only: false,
            ..base
        };
        let fps = [
            config_fingerprint(&base),
            config_fingerprint(&alpha),
            config_fingerprint(&level),
            config_fingerprint(&universe),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "fingerprints {i} and {j} collide");
            }
        }
        // max_level None vs Some(0) must differ (the +1 encoding).
        assert_ne!(
            config_fingerprint(&MinerConfig {
                max_level: Some(0),
                ..base
            }),
            config_fingerprint(&base)
        );
    }

    #[test]
    fn take_verifies_content_not_just_the_key() {
        let mut cache = SessionCache::new(4);
        let cfg = MinerConfig::default();
        let a = db_of("ABCABC");
        let b = db_of("CBACBA"); // same length/alphabet, different content
        let key_a = session_key(&a, &cfg);
        cache.put(key_a, CachedSession::build(Arc::clone(&a), &[cfg], pool()));

        // A forged lookup: database B presented under A's key must not get
        // A's session.
        assert!(cache.take(key_a, &b, &[cfg]).is_none());
        assert_eq!(cache.stats().collisions, 1);
        // The genuine owner still finds (and verifies) the entry.
        assert!(cache.take(key_a, &a, &[cfg]).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn take_verifies_config_too() {
        let mut cache = SessionCache::new(4);
        let cfg = MinerConfig::default();
        let other = MinerConfig { alpha: 0.5, ..cfg };
        let a = db_of("ABCABC");
        let key = session_key(&a, &cfg);
        cache.put(key, CachedSession::build(Arc::clone(&a), &[cfg], pool()));
        assert!(cache.take(key, &a, &[other]).is_none());
        assert!(cache.take(key, &a, &[cfg]).is_some());
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<SessionKey> = dbs.iter().map(|d| session_key(d, &cfg)).collect();
        for (k, d) in keys.iter().zip(&dbs) {
            cache.put(*k, CachedSession::build(Arc::clone(d), &[cfg], pool()));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The first (least recently used) entry was evicted.
        assert!(cache.take(keys[0], &dbs[0], &[cfg]).is_none());
        assert!(cache.take(keys[2], &dbs[2], &[cfg]).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut cache = SessionCache::new(2);
        let cfg = MinerConfig::default();
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<SessionKey> = dbs.iter().map(|d| session_key(d, &cfg)).collect();
        cache.put(
            keys[0],
            CachedSession::build(Arc::clone(&dbs[0]), &[cfg], pool()),
        );
        cache.put(
            keys[1],
            CachedSession::build(Arc::clone(&dbs[1]), &[cfg], pool()),
        );
        // Touch entry 0: it becomes most-recently-used.
        let (e, _) = cache.take(keys[0], &dbs[0], &[cfg]).unwrap();
        cache.put(keys[0], e);
        // Inserting a third evicts entry 1, not entry 0.
        cache.put(
            keys[2],
            CachedSession::build(Arc::clone(&dbs[2]), &[cfg], pool()),
        );
        assert!(cache.take(keys[0], &dbs[0], &[cfg]).is_some());
        assert!(cache.take(keys[1], &dbs[1], &[cfg]).is_none());
    }

    #[test]
    fn group_fingerprint_is_order_insensitive_but_multiset_sensitive() {
        let a = MinerConfig::default();
        let b = MinerConfig { alpha: 0.25, ..a };
        let c = MinerConfig {
            max_level: Some(3),
            ..a
        };
        assert_eq!(group_fingerprint(&[a, b, c]), group_fingerprint(&[c, a, b]));
        assert_ne!(group_fingerprint(&[a, b]), group_fingerprint(&[a, b, c]));
        // Multiset, not set: duplicates count.
        assert_ne!(group_fingerprint(&[a, b]), group_fingerprint(&[a, a, b]));
        assert_ne!(group_fingerprint(&[a, a]), group_fingerprint(&[a]));
        // A batch of one is keyed exactly like the request alone.
        assert_eq!(group_fingerprint(&[b]), config_fingerprint(&b));
    }

    #[test]
    fn co_cache_hit_returns_the_routing_permutation() {
        let mut cache = SessionCache::new(4);
        let a = MinerConfig::default();
        let b = MinerConfig { alpha: 0.25, ..a };
        let db = db_of("ABCABC");
        let key = SessionKey {
            db_hash: db_content_hash(&db),
            config_fingerprint: group_fingerprint(&[a, b]),
        };
        cache.put(key, CachedSession::build(Arc::clone(&db), &[a, b], pool()));

        // Same set, swapped arrival order: the permutation routes member 1's
        // result to request 0 and vice versa.
        let (entry, perm) = cache.take(key, &db, &[b, a]).expect("permuted hit");
        assert_eq!(perm, vec![1, 0]);
        assert_eq!(cache.stats().hits, 1);
        cache.put(key, entry);

        // Same key, different database content: verified miss.
        let other = db_of("CBACBA");
        assert!(cache.take(key, &other, &[b, a]).is_none());
        assert_eq!(cache.stats().collisions, 1);

        // Same key, wrong config multiset: verified miss too.
        assert!(cache.take(key, &db, &[a, a]).is_none());
        assert_eq!(cache.stats().collisions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = SessionCache::new(0);
        let cfg = MinerConfig::default();
        let a = db_of("ABAB");
        let key = session_key(&a, &cfg);
        cache.put(key, CachedSession::build(Arc::clone(&a), &[cfg], pool()));
        assert!(cache.is_empty());
        assert!(cache.take(key, &a, &[cfg]).is_none());
    }
}
