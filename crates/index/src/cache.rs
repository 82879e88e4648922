//! The region-result cache.
//!
//! An [`ExtractionEngine`](crate::ExtractionEngine) answers every phase
//! query over an immutable [`NumericView`](aide_data::NumericView), so a
//! rectangle's answer can never go stale: [`RegionCache`] memoizes
//! query/count results keyed on the **exact bit pattern** of the
//! rectangle's bounds ([`Rect::key`](aide_util::geom::Rect::key) — no
//! epsilon games, a bit-different rectangle selects a different point
//! set) and is never invalidated.
//!
//! The steering loop re-issues many bit-identical rectangles: the
//! density probe of a grid cell repeats when a cell is re-examined, the
//! misclassified phase rebuilds the same cluster bounding boxes while
//! the false-negative set is stable, and full-domain probes recur every
//! iteration. A hit costs one hash lookup and — matching the paper's
//! cost model, which counts *real* work — charges **zero**
//! `tuples_examined`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use aide_util::geom::{Rect, RectKey};

use crate::{CountOutput, QueryOutput};

/// One rectangle's memoized answers. A full query result subsumes the
/// count (`count = indices.len()`), so `count` is only stored for
/// rectangles that were *only* counted.
#[derive(Debug, Clone, Default)]
struct Entry {
    query: Option<Arc<QueryOutput>>,
    count: Option<CountOutput>,
}

/// Hit/miss counters of one cache, mirrored into
/// [`ExtractionStats`](crate::ExtractionStats) by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run against the index.
    pub misses: u64,
}

/// A never-invalidated map from canonical rectangle key to query result.
///
/// ```
/// use std::sync::Arc;
/// use aide_index::{QueryOutput, RegionCache};
/// use aide_util::geom::Rect;
///
/// let mut cache = RegionCache::new();
/// let rect = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// assert!(cache.get_query(&rect.key()).is_none()); // miss
///
/// cache.put_query(&rect, Arc::new(QueryOutput { indices: vec![3, 8], examined: 40 }));
/// // Keyed on the exact f64 bit pattern: the same bounds hit…
/// assert_eq!(cache.get_query(&rect.key()).unwrap().indices, vec![3, 8]);
/// // …and a full query result serves count lookups for free.
/// assert_eq!(cache.get_count(&rect.key()).unwrap().count, 2);
/// // A bit-different rectangle is a different region: miss.
/// let nudged = Rect::new(vec![0.0, 0.0], vec![1.0 + f64::EPSILON, 1.0]);
/// assert!(cache.get_query(&nudged.key()).is_none());
/// ```
#[derive(Debug, Default)]
pub struct RegionCache {
    entries: HashMap<RectKey, Entry>,
    stats: CacheStats,
}

impl RegionCache {
    /// Hard cap on cached rectangles. The steering loop's working set is
    /// tiny (hundreds of distinct rectangles per session); the cap only
    /// bounds memory under adversarial workloads. Once full, new results
    /// are simply not cached — entries are never evicted, so a cached
    /// answer stays cached (which keeps hit patterns deterministic).
    pub const MAX_ENTRIES: usize = 1 << 16;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached rectangles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters since construction (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the hit/miss counters (the cached entries stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Looks up the full query result for `rect`, counting a hit or miss.
    pub fn get_query(&mut self, key: &RectKey) -> Option<Arc<QueryOutput>> {
        let found = self.entries.get(key).and_then(|e| e.query.clone());
        self.tally(found.is_some());
        found
    }

    /// Looks up a count for `rect`, counting a hit or miss. Served from
    /// either a cached count or a cached full query result.
    pub fn get_count(&mut self, key: &RectKey) -> Option<CountOutput> {
        let found = self.entries.get(key).and_then(|e| {
            e.count.or_else(|| {
                e.query.as_ref().map(|q| CountOutput {
                    count: q.indices.len(),
                    examined: q.examined,
                })
            })
        });
        self.tally(found.is_some());
        found
    }

    /// Memoizes a full query result for `rect`.
    pub fn put_query(&mut self, rect: &Rect, out: Arc<QueryOutput>) {
        if let Some(entry) = self.entry(rect) {
            entry.query = Some(out);
        }
    }

    /// Memoizes a count-only result for `rect`.
    pub fn put_count(&mut self, rect: &Rect, out: CountOutput) {
        if let Some(entry) = self.entry(rect) {
            entry.count = Some(out);
        }
    }

    fn entry(&mut self, rect: &Rect) -> Option<&mut Entry> {
        let key = rect.key();
        if self.entries.len() >= Self::MAX_ENTRIES && !self.entries.contains_key(&key) {
            return None;
        }
        Some(self.entries.entry(key).or_default())
    }

    fn tally(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }
}

/// A [`RegionCache`] shareable across engines (and threads).
///
/// The never-invalidate contract is what makes sharing safe: every
/// engine holding a clone answers queries over the **same immutable
/// view**, so a rectangle's cached result is exact no matter which
/// engine computed it. Sharing changes only *cost accounting* (who pays
/// the miss, who enjoys the hit) — never indices, counts, samples or any
/// caller's RNG stream. This is the cross-session scaling win `aide
/// serve` is built on: the first analyst to probe a region pays for it,
/// every later analyst hits.
///
/// Mutation sites ([`ExtractionEngine::append_rows`]
/// (crate::ExtractionEngine::append_rows)) refuse to run on an engine
/// holding a shared cache, because an append would change what the
/// cached rectangles *should* return for every other holder.
///
/// Clones are handles to one underlying cache; the hit/miss counters
/// aggregate across all holders (each engine additionally books its own
/// per-engine [`CacheStats`](crate::CacheStats) into its
/// [`ExtractionStats`](crate::ExtractionStats)).
///
/// ```
/// use std::sync::Arc;
/// use aide_index::{QueryOutput, SharedRegionCache};
/// use aide_util::geom::Rect;
///
/// let shared = SharedRegionCache::new();
/// let alias = shared.clone();
/// let rect = Rect::new(vec![0.0], vec![1.0]);
/// shared.put_query(&rect, Arc::new(QueryOutput { indices: vec![2], examined: 5 }));
/// // The other handle sees the entry: one cache, two holders.
/// assert_eq!(alias.get_query(&rect.key()).unwrap().indices, vec![2]);
/// assert_eq!(alias.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRegionCache {
    inner: Arc<Mutex<RegionCache>>,
}

impl SharedRegionCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegionCache> {
        self.inner.lock().expect("region cache is never poisoned")
    }

    /// Whether two handles refer to the same underlying cache.
    pub fn same_cache(&self, other: &SharedRegionCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Cached rectangles.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Aggregate hit/miss counters across every holder.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Looks up the full query result for a rectangle key, tallying a
    /// hit or miss on the shared counters.
    pub fn get_query(&self, key: &RectKey) -> Option<Arc<QueryOutput>> {
        self.lock().get_query(key)
    }

    /// Looks up a count, tallying a hit or miss on the shared counters.
    pub fn get_count(&self, key: &RectKey) -> Option<CountOutput> {
        self.lock().get_count(key)
    }

    /// Memoizes a full query result.
    pub fn put_query(&self, rect: &Rect, out: Arc<QueryOutput>) {
        self.lock().put_query(rect, out);
    }

    /// Memoizes a count-only result.
    pub fn put_count(&self, rect: &Rect, out: CountOutput) {
        self.lock().put_count(rect, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: f64) -> Rect {
        Rect::new(vec![lo, 0.0], vec![lo + 1.0, 1.0])
    }

    fn query_out(n: usize) -> Arc<QueryOutput> {
        Arc::new(QueryOutput {
            indices: (0..n as u32).collect(),
            examined: n * 3,
        })
    }

    #[test]
    fn query_results_are_memoized_and_serve_counts() {
        let mut c = RegionCache::new();
        let r = rect(5.0);
        assert!(c.get_query(&r.key()).is_none());
        c.put_query(&r, query_out(4));
        let hit = c.get_query(&r.key()).expect("cached");
        assert_eq!(hit.indices.len(), 4);
        // A cached query result answers count lookups too.
        let count = c.get_count(&r.key()).expect("derived count");
        assert_eq!(count.count, 4);
        assert_eq!(count.examined, 12);
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn count_only_entries_do_not_answer_queries() {
        let mut c = RegionCache::new();
        let r = rect(1.0);
        c.put_count(&r, CountOutput { count: 7, examined: 9 });
        assert_eq!(c.get_count(&r.key()).unwrap().count, 7);
        assert!(
            c.get_query(&r.key()).is_none(),
            "a count cannot materialize indices"
        );
    }

    #[test]
    fn distinct_rectangles_do_not_collide() {
        let mut c = RegionCache::new();
        c.put_query(&rect(1.0), query_out(1));
        c.put_query(&rect(2.0), query_out(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get_query(&rect(1.0).key()).unwrap().indices.len(), 1);
        assert_eq!(c.get_query(&rect(2.0).key()).unwrap().indices.len(), 2);
    }

    #[test]
    fn shared_cache_is_one_cache_with_aggregate_stats() {
        let a = SharedRegionCache::new();
        let b = a.clone();
        assert!(a.same_cache(&b));
        assert!(!a.same_cache(&SharedRegionCache::new()));
        assert!(a.is_empty());
        let r = rect(3.0);
        assert!(a.get_query(&r.key()).is_none()); // miss via a
        b.put_query(&r, query_out(2));
        assert_eq!(a.get_query(&r.key()).unwrap().indices.len(), 2); // hit via a
        assert_eq!(b.get_count(&r.key()).unwrap().count, 2); // hit via b
        assert_eq!(a.len(), 1);
        // One counter set, shared by every holder.
        assert_eq!(a.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(b.stats(), a.stats());
    }

    #[test]
    fn stats_reset_keeps_entries() {
        let mut c = RegionCache::new();
        c.put_query(&rect(1.0), query_out(1));
        let _ = c.get_query(&rect(1.0).key());
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.len(), 1);
        assert!(c.get_query(&rect(1.0).key()).is_some());
    }
}
