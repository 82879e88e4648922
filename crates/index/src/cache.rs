//! The region-result cache.
//!
//! An [`ExtractionEngine`](crate::ExtractionEngine) answers every phase
//! query over an immutable [`NumericView`](aide_data::NumericView), so a
//! rectangle's answer can never go stale: [`SharedRegionCache`] memoizes
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The cache contents behind [`SharedRegionCache`]'s lock. Only engines
/// read and fill it, taking the lock once per lookup or insert pass.
#[derive(Debug, Default)]
pub(crate) struct CacheState {
    entries: HashMap<RectKey, Entry>,
    stats: CacheStats,
}

impl CacheState {
    /// Looks up the full query result for `rect`, counting a hit or miss.
    pub(crate) fn get_query(&mut self, key: &RectKey) -> Option<Arc<QueryOutput>> {
        let found = self.entries.get(key).and_then(|e| e.query.clone());
        self.tally(found.is_some());
        found
    }

    /// Looks up a count for `rect`, counting a hit or miss. Served from
    /// either a cached count or a cached full query result.
    pub(crate) fn get_count(&mut self, key: &RectKey) -> Option<CountOutput> {
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
    pub(crate) fn put_query(&mut self, rect: &Rect, out: Arc<QueryOutput>) {
        if let Some(entry) = self.entry(rect) {
            entry.query = Some(out);
        }
    }

    /// Memoizes a count-only result for `rect`.
    pub(crate) fn put_count(&mut self, rect: &Rect, out: CountOutput) {
        if let Some(entry) = self.entry(rect) {
            entry.count = Some(out);
        }
    }

    fn entry(&mut self, rect: &Rect) -> Option<&mut Entry> {
        let key = rect.key();
        if self.entries.len() >= SharedRegionCache::MAX_ENTRIES && !self.entries.contains_key(&key)
        {
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

/// A never-invalidated map from canonical rectangle key to query result,
/// shareable across engines (and threads).
///
/// The never-invalidate contract holds by construction: only engines fill
/// the cache, an engine's view and index never change after it is built,
/// and every engine holding a clone of this handle answers queries over
/// the **same view** (forks share it, see
/// [`ExtractionEngine::fork_session`](crate::ExtractionEngine::fork_session)).
/// So a rectangle's cached result is exact no matter which engine
/// computed it. Sharing changes only *cost accounting* (who pays the
/// miss, who enjoys the hit) — never indices, counts, samples or any
/// caller's RNG stream. This is the cross-session scaling win `aide
/// serve` is built on: the first analyst to probe a region pays for it,
/// every later analyst hits.
///
/// Clones are handles to one underlying cache; the hit/miss counters
/// aggregate across all holders (each engine additionally books its own
/// per-engine counters into its
/// [`ExtractionStats`](crate::ExtractionStats)).
///
/// ```
/// use aide_data::view::{Domain, NumericView, SpaceMapper};
/// use aide_index::{CacheStats, ExtractionEngine, IndexKind, SharedRegionCache};
/// use aide_util::geom::Rect;
///
/// let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 10.0)]);
/// let view = NumericView::new(mapper, vec![1.0, 5.0, 9.0], vec![0, 1, 2]);
/// let cache = SharedRegionCache::new();
/// let mut a = ExtractionEngine::new(view, IndexKind::Scan);
/// a.set_shared_cache(cache.clone());
/// let mut b = a.fork_session(); // holds a clone of the same handle
///
/// let rect = Rect::new(vec![0.0], vec![6.0]);
/// assert_eq!(a.query_in(&rect), vec![0, 1]); // miss: `a` scans the view
/// // A full query result serves count lookups for free, for every holder.
/// assert_eq!(b.count_in(&rect), 2);
/// assert_eq!(b.stats().tuples_examined, 0);
/// // Keyed on the exact f64 bit pattern: a bit-different rectangle is a
/// // different region, so it misses.
/// b.count_in(&Rect::new(vec![0.0], vec![6.0 + 1e-12]));
/// assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 2 });
/// assert_eq!(cache.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRegionCache {
    inner: Arc<Mutex<CacheState>>,
}

impl SharedRegionCache {
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

    /// Locks the cache. Every critical section is a map lookup or insert
    /// of a finished result (plus a counter bump), which a panic cannot
    /// leave half-done, so a lock poisoned by a panicking holder is taken
    /// over rather than failing every later session.
    pub(crate) fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cached rectangles.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.lock().entries.is_empty()
    }

    /// Aggregate hit/miss counters across every holder.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
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
            runs: if n == 0 { vec![] } else { vec![(0, 0)] },
            examined: n * 3,
        })
    }

    #[test]
    fn query_results_are_memoized_and_serve_counts() {
        let mut c = CacheState::default();
        let r = rect(5.0);
        assert!(c.get_query(&r.key()).is_none());
        c.put_query(&r, query_out(4));
        let hit = c.get_query(&r.key()).expect("cached");
        assert_eq!(hit.indices.len(), 4);
        // A cached query result answers count lookups too.
        let count = c.get_count(&r.key()).expect("derived count");
        assert_eq!(count.count, 4);
        assert_eq!(count.examined, 12);
        assert_eq!(c.stats, CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn count_only_entries_do_not_answer_queries() {
        let mut c = CacheState::default();
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
        let mut c = CacheState::default();
        c.put_query(&rect(1.0), query_out(1));
        c.put_query(&rect(2.0), query_out(2));
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.get_query(&rect(1.0).key()).unwrap().indices.len(), 1);
        assert_eq!(c.get_query(&rect(2.0).key()).unwrap().indices.len(), 2);
    }

    #[test]
    fn shared_cache_is_one_cache_with_aggregate_stats() {
        let a = SharedRegionCache::new();
        let b = a.clone();
        assert!(a.is_empty());
        let r = rect(3.0);
        assert!(a.lock().get_query(&r.key()).is_none()); // miss via a
        b.lock().put_query(&r, query_out(2));
        assert_eq!(a.lock().get_query(&r.key()).unwrap().indices.len(), 2); // hit via a
        assert_eq!(b.lock().get_count(&r.key()).unwrap().count, 2); // hit via b
        assert_eq!(a.len(), 1);
        // One counter set, shared by every holder.
        assert_eq!(a.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(b.stats(), a.stats());
        assert!(SharedRegionCache::new().is_empty(), "a new handle is a new cache");
    }

    #[test]
    fn a_panicking_holder_does_not_disable_the_cache() {
        let cache = SharedRegionCache::new();
        let r = rect(0.0);
        cache.lock().put_query(&r, query_out(2));
        let held = cache.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("request failed while holding the cache");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.inner.is_poisoned());
        // Earlier entries still hit, and new ones are still stored.
        assert_eq!(cache.lock().get_query(&r.key()).unwrap().indices.len(), 2);
        cache.lock().put_count(&rect(5.0), CountOutput { count: 0, examined: 0 });
        assert_eq!(cache.len(), 2);
    }
}
