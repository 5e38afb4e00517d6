//! The index cache: one shared [`OccurrenceIndex`] per database, keyed by
//! database content hash alone.
//!
//! Repeated queries against the same database are the common case for a
//! mining service (dashboards refreshing, clients polling a growing stream at
//! intervals, several tenants querying one dataset with their own α). The
//! per-database work such a query can reuse is the occurrence index: the
//! per-symbol counts, the σ×σ adjacent-pair table that answers every
//! distinct level 2 with one read, and the position lists of vertical
//! probes. None of it depends on a configuration, so a repeat, a new α or a
//! new level bound all hit the same entry.
//!
//! An entry is the verified database handle and its index, both behind an
//! `Arc`. A lookup hands out clones and never takes the entry out, so
//! concurrent requests over one database (paper-scan's two lanes, one α
//! each) count against one index, and its pair table is built once for all
//! of them. Each request plans its own `MiningSession` over the entry
//! (`MiningSessionBuilder::with_index`): the compiled candidate buffers are
//! per request and cheap to rebuild, while the index is what a database's
//! requests share. On a miss the service builds the index outside the lock
//! and inserts it before mining; when two requests miss on one database at
//! once, the first insert wins and the second counts against its index too.
//!
//! ## Collision safety
//!
//! The key is the database's 64-bit content hash
//! ([`EventDb::content_hash`], 8 bytes per step), so two different databases
//! *can* collide.
//! An entry is therefore only handed out after verification against the
//! requesting database — pointer equality when the client resubmits the
//! same handle, full symbol/timestamp comparison otherwise; a forged or
//! colliding key falls back to a miss instead of serving another tenant's
//! index.

use std::sync::Arc;

use tdm_core::{EventDb, OccurrenceIndex};

/// True when two databases have the same content: pointer equality as the
/// fast path, full symbol/timestamp comparison otherwise. A 64-bit hash
/// collision must never share an index.
fn db_matches(a: &EventDb, b: &EventDb) -> bool {
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

/// One cached database: the verified handle and the occurrence index over
/// its stream, each shared by every request that mines it.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) db: Arc<EventDb>,
    pub(crate) index: Arc<OccurrenceIndex>,
}

/// A small LRU of shared indexes, at most one entry per database. Lookups
/// hand out clones; nothing is taken out while a request mines. See the
/// [module docs](self).
///
/// The cache never frees an entry: [`put`](IndexCache::put) hands back the
/// entry it evicts, or the one it turns away, so the caller can drop it —
/// often the last handle on a database and its alphabet — after it releases
/// the lock.
#[derive(Debug)]
pub(crate) struct IndexCache {
    capacity: usize,
    /// Recency order: least-recently-used first.
    entries: Vec<(u64, Entry)>,
    stats: CacheStats,
}

impl IndexCache {
    /// An empty cache holding at most `capacity` databases (0 disables
    /// caching: every request builds its own index).
    pub(crate) fn new(capacity: usize) -> Self {
        IndexCache {
            capacity,
            entries: Vec::with_capacity(capacity.min(64)),
            stats: CacheStats::default(),
        }
    }

    /// Number of cached databases.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The entry for `db`, if one is cached, as the most recently used
    /// (one hit or one miss). An entry under the same hash but over other
    /// content is never handed out.
    pub(crate) fn get(&mut self, db_hash: u64, db: &EventDb) -> Option<Entry> {
        let Some(i) = self.find(db_hash, db) else {
            self.stats.misses += 1;
            // Any entry under this key holds other content.
            self.stats.collisions += u64::from(self.entries.iter().any(|e| e.0 == db_hash));
            return None;
        };
        self.stats.hits += 1;
        let hit = self.entries.remove(i);
        let entry = hit.1.clone();
        self.entries.push(hit);
        Some(entry)
    }

    /// Caches `entry` as the most recently used, unless its database is
    /// cached already: a request that missed alongside this one inserted
    /// first, and its entry wins. Returns the entry to mine with and the one
    /// for the caller to drop outside its lock, if any: the entry evicted to
    /// make room, or `entry` itself when it lost. With caching disabled,
    /// `entry` comes straight back.
    pub(crate) fn put(&mut self, db_hash: u64, entry: Entry) -> (Entry, Option<Entry>) {
        if let Some(i) = self.find(db_hash, &entry.db) {
            return (self.entries[i].1.clone(), Some(entry));
        }
        if self.capacity == 0 {
            return (entry, None);
        }
        let evicted = (self.entries.len() == self.capacity).then(|| self.entries.remove(0).1);
        self.stats.evictions += u64::from(evicted.is_some());
        self.entries.push((db_hash, entry.clone()));
        (entry, evicted)
    }

    /// Position of the entry holding `db`'s content.
    fn find(&self, db_hash: u64, db: &EventDb) -> Option<usize> {
        self.entries
            .iter()
            .position(|(hash, entry)| *hash == db_hash && db_matches(&entry.db, db))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::Alphabet;

    fn db_of(s: &str) -> Arc<EventDb> {
        Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap())
    }

    /// An entry over `db` with an index of its own.
    fn entry(db: &Arc<EventDb>) -> Entry {
        Entry {
            db: Arc::clone(db),
            index: Arc::new(OccurrenceIndex::build(db.alphabet().len(), db.symbols())),
        }
    }

    /// True when `entry` is over exactly `db` (the same handle).
    fn over(entry: &Entry, db: &Arc<EventDb>) -> bool {
        Arc::ptr_eq(&entry.db, db)
    }

    #[test]
    fn content_hash_sees_every_byte() {
        // Equal prefixes, different tails: the hash-relevant content is the
        // whole stream, not a prefix.
        let a = db_of(&("AB".repeat(100) + "X"));
        let b = db_of(&("AB".repeat(100) + "Y"));
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());

        // A one-byte change anywhere, in every word position and in a
        // partial last word, changes the hash.
        let ab = Alphabet::latin26();
        for len in 0..=17usize {
            let base: Vec<u8> = (0..len).map(|i| (i * 7 % 26) as u8).collect();
            let hash = EventDb::new(ab.clone(), base.clone())
                .unwrap()
                .content_hash();
            for at in 0..len {
                for other in (0..26).filter(|&s| s != base[at]) {
                    let mut flipped = base.clone();
                    flipped[at] = other;
                    let flipped = EventDb::new(ab.clone(), flipped).unwrap();
                    assert_ne!(flipped.content_hash(), hash, "len {len}, at {at}");
                }
            }
        }

        // Timestamps participate: a moved timestamp, or none, hashes apart.
        let timed = |times: Vec<u64>| {
            EventDb::with_times(ab.clone(), vec![0, 1, 2], times)
                .unwrap()
                .content_hash()
        };
        let untimed = EventDb::new(ab.clone(), vec![0, 1, 2]).unwrap();
        assert_ne!(timed(vec![5, 9, 300]), timed(vec![5, 9, 301]));
        assert_ne!(timed(vec![5, 9, 300]), timed(vec![5, 10, 300]));
        assert_ne!(timed(vec![0, 0, 0]), untimed.content_hash());

        // Equal content hashes equal, whatever append history reached it.
        let stream: Vec<u8> = (0..41).map(|i| (i * 11 % 26) as u8).collect();
        let batch = EventDb::new(ab.clone(), stream.clone()).unwrap();
        for chunk in [1, 3, 8, 9, 40] {
            let mut grown = EventDb::new(ab.clone(), stream[..5].to_vec()).unwrap();
            for part in stream[5..].chunks(chunk) {
                grown.extend(part).unwrap();
            }
            assert_eq!(
                grown.content_hash(),
                batch.content_hash(),
                "chunks of {chunk}"
            );
        }
    }

    #[test]
    fn get_verifies_content_not_just_the_key() {
        let mut cache = IndexCache::new(4);
        let a = db_of("ABCABC");
        let b = db_of("CBACBA"); // same length/alphabet, different content
        let key_a = a.content_hash();
        cache.put(key_a, entry(&a));

        // A forged lookup: database B presented under A's key must not get
        // A's index, and B's own entry goes beside A's, not over it.
        assert!(cache.get(key_a, &b).is_none());
        assert_eq!(cache.stats().collisions, 1);
        let (kept, _) = cache.put(key_a, entry(&b));
        assert!(over(&kept, &b));
        assert_eq!(cache.len(), 2);
        // The genuine owner still finds (and verifies) its entry.
        assert!(over(&cache.get(key_a, &a).unwrap(), &a));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn the_first_put_for_a_database_wins() {
        // Two requests missed on one database at once, and each built an
        // index: the second put gets the first one's entry back, so both
        // count against one index, and the database holds one slot.
        let mut cache = IndexCache::new(4);
        let db = db_of("ABCABC");
        let key = db.content_hash();
        let first = entry(&db);
        let (kept, dropped) = cache.put(key, first.clone());
        assert!(Arc::ptr_eq(&kept.index, &first.index) && dropped.is_none());
        let second = entry(&db_of("ABCABC"));
        let (kept, dropped) = cache.put(key, second.clone());
        assert!(Arc::ptr_eq(&kept.index, &first.index));
        // The losing entry comes back for the caller to drop.
        assert!(Arc::ptr_eq(
            &dropped.expect("handed back").index,
            &second.index
        ));
        assert_eq!(cache.len(), 1);
        // Lookups hand out clones and leave the entry in place.
        for _ in 0..2 {
            let hit = cache.get(key, &db).expect("cached");
            assert!(Arc::ptr_eq(&hit.index, &first.index));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (2, 0));
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = IndexCache::new(2);
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<u64> = dbs.iter().map(|d| d.content_hash()).collect();
        for (k, d) in keys.iter().zip(&dbs) {
            cache.put(*k, entry(d));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The first (least recently used) entry was evicted.
        assert!(cache.get(keys[0], &dbs[0]).is_none());
        assert!(cache.get(keys[2], &dbs[2]).is_some());
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut cache = IndexCache::new(2);
        let dbs = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC")];
        let keys: Vec<u64> = dbs.iter().map(|d| d.content_hash()).collect();
        cache.put(keys[0], entry(&dbs[0]));
        cache.put(keys[1], entry(&dbs[1]));
        // A hit moves entry 0 back in as the most recently used.
        assert!(cache.get(keys[0], &dbs[0]).is_some());
        // Inserting a third evicts entry 1, not entry 0.
        cache.put(keys[2], entry(&dbs[2]));
        assert!(cache.get(keys[0], &dbs[0]).is_some());
        assert!(cache.get(keys[1], &dbs[1]).is_none());
    }

    #[test]
    fn put_hands_back_what_it_evicts_least_recently_used_first() {
        let mut cache = IndexCache::new(2);
        let [a, b, c, d] = [db_of("AAAA"), db_of("BBBB"), db_of("CCCC"), db_of("DDDD")];
        let [ka, kb, kc, kd] = [&a, &b, &c, &d].map(|db| db.content_hash());
        assert!(cache.put(ka, entry(&a)).1.is_none());
        assert!(cache.put(kb, entry(&b)).1.is_none());
        // Each new database past capacity evicts the least recently used.
        assert!(over(&cache.put(kc, entry(&c)).1.unwrap(), &a));
        assert!(cache.get(kb, &b).is_some());
        assert!(over(&cache.put(kd, entry(&d)).1.unwrap(), &c));
        assert_eq!((cache.len(), cache.stats().evictions), (2, 2));
        // A database already cached evicts nothing: the caller's own entry
        // comes back.
        assert!(over(&cache.put(kb, entry(&b)).1.unwrap(), &b));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = IndexCache::new(0);
        let a = db_of("ABAB");
        let key = a.content_hash();
        let built = entry(&a);
        let (kept, evicted) = cache.put(key, built.clone());
        assert!(Arc::ptr_eq(&kept.index, &built.index) && evicted.is_none());
        assert_eq!(cache.len(), 0);
        assert!(cache.get(key, &a).is_none());
    }
}
