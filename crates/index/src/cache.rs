//! The region-result cache.
//!
//! An [`ExtractionEngine`](crate::ExtractionEngine) answers every phase
//! query over an immutable [`NumericView`](aide_data::NumericView), so a
//! rectangle's answer can never go stale: [`SharedRegionCache`] memoizes
//! query/count results keyed on the **exact bit pattern** of the
//! rectangle's bounds ([`Rect::key`](aide_util::geom::Rect::key) — no
//! epsilon games, a bit-different rectangle selects a different point
//! set) and is never invalidated. It holds at most
//! [`SharedRegionCache::BUDGET_BYTES`] of answers; past that it stops
//! storing new ones and keeps the old.
//!
//! The steering loop re-issues many bit-identical rectangles: the
//! density probe of a grid cell repeats when a cell is re-examined, the
//! misclassified phase rebuilds the same cluster bounding boxes while
//! the false-negative set is stable, and full-domain probes recur every
//! iteration. A hit costs one hash lookup and — matching the paper's
//! cost model, which counts *real* work — charges **zero**
//! `tuples_examined`.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aide_util::geom::{Rect, RectKey};

use crate::{CountOutput, QueryOutput};

/// One rectangle's memoized answers. A full query result subsumes the
/// count (`count = len()`), so `count` is only stored for rectangles that
/// were *only* counted.
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
#[derive(Debug)]
pub(crate) struct CacheState {
    entries: HashMap<RectKey, Entry>,
    stats: CacheStats,
    /// Bytes charged for the entries held.
    bytes: usize,
    /// Bytes past which nothing more is stored.
    budget: usize,
}

impl Default for CacheState {
    fn default() -> Self {
        Self::with_budget(SharedRegionCache::BUDGET_BYTES)
    }
}

impl CacheState {
    fn with_budget(budget: usize) -> Self {
        Self {
            entries: HashMap::new(),
            stats: CacheStats::default(),
            bytes: 0,
            budget,
        }
    }

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
                    count: q.len(),
                    examined: q.examined,
                })
            })
        });
        self.tally(found.is_some());
        found
    }

    /// Memoizes a full query result for `rect`, unless one is already
    /// held (another engine computed the same answer at the same time).
    pub(crate) fn put_query(&mut self, rect: &Rect, out: Arc<QueryOutput>) {
        let bytes = out.bytes();
        if let Some(entry) = self.entry(rect, bytes, |e| e.query.is_some()) {
            entry.query = Some(out);
        }
    }

    /// Memoizes a count-only result for `rect`, unless it has one.
    pub(crate) fn put_count(&mut self, rect: &Rect, out: CountOutput) {
        if let Some(entry) = self.entry(rect, 0, |e| e.count.is_some()) {
            entry.count = Some(out);
        }
    }

    /// The entry to store an answer of `bytes` in, charged for it, or
    /// `None` if the entry `held` it already or the charge (plus the
    /// entry's own, for a new rectangle) would pass the budget.
    fn entry(
        &mut self,
        rect: &Rect,
        bytes: usize,
        held: impl Fn(&Entry) -> bool,
    ) -> Option<&mut Entry> {
        let key = rect.key();
        let charge = match self.entries.get(&key) {
            Some(entry) if held(entry) => return None,
            Some(_) => bytes,
            None => bytes + Self::entry_bytes(rect),
        };
        if self.bytes + charge > self.budget {
            return None;
        }
        self.bytes += charge;
        Some(self.entries.entry(key).or_default())
    }

    /// What holding a rectangle costs before any answer: its map slot
    /// and its key's bounds.
    fn entry_bytes(rect: &Rect) -> usize {
        size_of::<(RectKey, Entry)>() + 2 * rect.dims() * size_of::<u64>()
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
/// assert!(cache.bytes() <= SharedRegionCache::BUDGET_BYTES);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRegionCache {
    inner: Arc<Mutex<CacheState>>,
}

impl SharedRegionCache {
    /// Bytes the cache may hold: its entries, their keys and their
    /// answers ([`QueryOutput::bytes`]), not the index rows answers share.
    /// Once an answer would pass it, that answer is simply not cached.
    /// Entries are never evicted, so a cached answer stays cached (which
    /// keeps hit patterns deterministic).
    ///
    /// This bounds memory; it does not fit a working set, because a
    /// long-lived server keeps adding answers until it binds. Measured
    /// on a server that runs session after session: a 4-round session on
    /// a 10M-row 2-D view adds about 115 KB, so 64 MiB holds about 590
    /// sessions and lifts the server's peak by 28 MiB over its startup
    /// mark. The rectangles sessions share are stored in the first few
    /// sessions, so the hit rate stays put once it binds. A 30-round
    /// session on 1M rows adds about 275 KB and re-reads its own
    /// answers; past about 245 such sessions, rounds miss more
    /// (ARCHITECTURE.md, "Region cache semantics", has the runs).
    pub const BUDGET_BYTES: usize = 64 << 20;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache that holds at most `budget` bytes instead of
    /// [`SharedRegionCache::BUDGET_BYTES`].
    #[cfg(test)]
    pub(crate) fn with_budget(budget: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(CacheState::with_budget(budget))),
        }
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

    /// Bytes the cached entries are charged, at most
    /// [`SharedRegionCache::BUDGET_BYTES`].
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Aggregate hit/miss counters across every holder.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::OutputBuilder;

    fn rect(lo: f64) -> Rect {
        Rect::new(vec![lo, 0.0], vec![lo + 1.0, 1.0])
    }

    fn query_out(n: usize) -> Arc<QueryOutput> {
        let mut b = OutputBuilder::new(None);
        b.push_full(0, n);
        Arc::new(b.finish(n * 3))
    }

    #[test]
    fn query_results_are_memoized_and_serve_counts() {
        let mut c = CacheState::default();
        let r = rect(5.0);
        assert!(c.get_query(&r.key()).is_none());
        c.put_query(&r, query_out(4));
        let hit = c.get_query(&r.key()).expect("cached");
        assert_eq!(hit.len(), 4);
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
        assert_eq!(c.get_query(&rect(1.0).key()).unwrap().len(), 1);
        assert_eq!(c.get_query(&rect(2.0).key()).unwrap().len(), 2);
    }

    #[test]
    fn entries_are_charged_and_the_budget_stops_inserts() {
        let r = rect(1.0);
        let (out, entry) = (query_out(4), CacheState::entry_bytes(&r));
        let mut c = CacheState::default();
        c.put_count(&r, CountOutput { count: 4, examined: 12 });
        assert_eq!(c.bytes, entry);
        c.put_query(&r, Arc::clone(&out));
        assert_eq!(c.bytes, entry + out.bytes());
        // A second answer for a held rectangle is not stored or charged.
        c.put_query(&r, query_out(4));
        c.put_count(&r, CountOutput { count: 4, examined: 12 });
        assert_eq!(c.bytes, entry + out.bytes());

        // A budget that holds the first rectangle's answers and no more.
        let mut c = CacheState::with_budget(entry + out.bytes());
        c.put_query(&r, Arc::clone(&out));
        c.put_count(&rect(2.0), CountOutput { count: 1, examined: 1 });
        c.put_query(&rect(3.0), query_out(0));
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.bytes, c.budget);
        assert!(c.get_query(&r.key()).is_some(), "nothing is evicted");
        assert!(c.get_count(&rect(2.0).key()).is_none());
    }

    #[test]
    fn shared_cache_is_one_cache_with_aggregate_stats() {
        let a = SharedRegionCache::new();
        let b = a.clone();
        assert!(a.is_empty());
        let r = rect(3.0);
        assert!(a.lock().get_query(&r.key()).is_none()); // miss via a
        b.lock().put_query(&r, query_out(2));
        assert_eq!(a.lock().get_query(&r.key()).unwrap().len(), 2); // hit via a
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
        assert_eq!(cache.lock().get_query(&r.key()).unwrap().len(), 2);
        cache.lock().put_count(&rect(5.0), CountOutput { count: 0, examined: 0 });
        assert_eq!(cache.len(), 2);
    }
}
