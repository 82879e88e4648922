//! The sample-extraction engine.
//!
//! [`ExtractionEngine`] is the "database connection" the AIDE framework
//! holds: every exploration phase turns its sampling areas into engine
//! calls, and the engine accounts for the costs the paper reports —
//! number of extraction queries, tuples examined and extraction
//! wall-clock time.
//!
//! Two optimizations sit between the phases and the raw
//! [`RegionIndex`]:
//!
//! * a [`SharedRegionCache`] memoizing results per exact rectangle (the
//!   view and index never change after construction, so entries never go
//!   stale); a hit still counts as an extraction query but charges
//!   **zero** `tuples_examined` — the paper's cost model counts real work;
//! * a **batch layer** ([`ExtractionEngine::query_batch_outputs`],
//!   [`ExtractionEngine::count_batch`]) that answers a whole phase's
//!   sampling areas in one [`Pool`](aide_util::par::Pool) pass, results
//!   in input order and costs identical to a serial loop, plus
//!   [`ExtractionEngine::select_batch_streams`], which selects samples
//!   from those results on RNG streams pre-split per request — so labels
//!   are bit-identical for any `AIDE_THREADS`.
//!
//! Selection skips the session's labeled rows, passed as an
//! [`Exclusions`] built once per round by
//! [`ExtractionEngine::exclusions`]. Removing them from a result costs
//! O(|labels| · log) and never copies the result; what stays
//! O(candidates) is the draw itself ([`Rng::sample_indices`] visits every
//! candidate position once).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_data::NumericView;
use aide_util::geom::{Rect, RectKey};
use aide_util::par::Pool;
use aide_util::rng::{Rng, Xoshiro256pp};
use aide_util::trace::Tracer;

use crate::cache::CacheState;
use crate::exclusions::raw_position;
use crate::{
    CountOutput, Exclusions, GridIndex, QueryOutput, RegionIndex, ScanIndex, SharedRegionCache,
};

/// Which access path the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Equi-width grid buckets (default; models the covering index).
    Grid,
    /// Full scan on every query (models the expensive path of §5.2, and
    /// the reference the grid is checked against).
    Scan,
}

/// One extracted sample object.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Position in the engine's [`NumericView`].
    pub view_index: u32,
    /// Row id in the source table (what the user is shown).
    pub row_id: u32,
    /// Normalized coordinates of the object.
    pub point: Vec<f64>,
}

/// Cumulative extraction costs since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Extraction queries issued (one per sampling area, as in the paper).
    /// Cache hits still count: the phase logically issued the query.
    pub queries: u64,
    /// Points whose coordinates were tested against query rectangles.
    /// Cache hits charge 0 — no point was re-examined.
    pub tuples_examined: u64,
    /// Points returned by queries (before sub-sampling to `n`).
    pub tuples_returned: u64,
    /// Queries answered from the region cache.
    pub cache_hits: u64,
    /// Queries that had to run against the index.
    pub cache_misses: u64,
    /// Wall-clock time spent inside the engine.
    pub elapsed: Duration,
    /// Wall-clock time spent selecting samples from query results:
    /// [`ExtractionEngine::select_batch_streams`] plus the pick inside
    /// [`ExtractionEngine::sample_in_excluding`] (which `elapsed` also
    /// covers).
    pub select: Duration,
}

impl ExtractionStats {
    /// Books a query served from the cache: it still counts as an
    /// extraction query, but no tuple was re-examined.
    fn book_hit(&mut self, returned: usize) {
        self.queries += 1;
        self.cache_hits += 1;
        self.tuples_returned += returned as u64;
    }

    /// Books a query that ran against the index.
    fn book_miss(&mut self, examined: usize, returned: usize) {
        self.queries += 1;
        self.cache_misses += 1;
        self.tuples_examined += examined as u64;
        self.tuples_returned += returned as u64;
    }
}

/// One kind of cached answer — a full query result or a count. The
/// single-rect path ([`ExtractionEngine::fetch`]) and the batch path
/// ([`ExtractionEngine::resolve_batch`]) apply one cache policy to both.
trait Answer: Clone + Send + Sync {
    fn lookup(cache: &mut CacheState, key: &RectKey) -> Option<Self>;
    fn compute(index: &dyn RegionIndex, view: &NumericView, rect: &Rect) -> Self;
    fn store(cache: &mut CacheState, rect: &Rect, out: Self);
    /// `(examined, returned)`: the tuples a miss on this answer books.
    fn cost(&self) -> (usize, usize);
}

impl Answer for Arc<QueryOutput> {
    fn lookup(cache: &mut CacheState, key: &RectKey) -> Option<Self> {
        cache.get_query(key)
    }

    fn compute(index: &dyn RegionIndex, view: &NumericView, rect: &Rect) -> Self {
        Arc::new(index.query(view, rect))
    }

    fn store(cache: &mut CacheState, rect: &Rect, out: Self) {
        cache.put_query(rect, out);
    }

    fn cost(&self) -> (usize, usize) {
        (self.examined, self.indices.len())
    }
}

impl Answer for CountOutput {
    fn lookup(cache: &mut CacheState, key: &RectKey) -> Option<Self> {
        cache.get_count(key)
    }

    fn compute(index: &dyn RegionIndex, view: &NumericView, rect: &Rect) -> Self {
        index.count(view, rect)
    }

    fn store(cache: &mut CacheState, rect: &Rect, out: Self) {
        cache.put_count(rect, out);
    }

    fn cost(&self) -> (usize, usize) {
        (self.examined, self.count)
    }
}

/// Region-sampling façade over a [`NumericView`] plus a [`RegionIndex`].
pub struct ExtractionEngine {
    view: Arc<NumericView>,
    /// Shared so [`ExtractionEngine::fork_session`] can hand the built
    /// index to per-session engines without rebuilding. Neither the view
    /// nor the index changes after construction, which is what lets every
    /// holder of `cache` trust its entries forever.
    index: Arc<dyn RegionIndex>,
    kind: IndexKind,
    stats: ExtractionStats,
    pool: Pool,
    cache: SharedRegionCache,
    tracer: Tracer,
}

impl std::fmt::Debug for ExtractionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractionEngine")
            .field("points", &self.view.len())
            .field("dims", &self.view.dims())
            .field("index", &self.index.name())
            .field("threads", &self.pool.threads())
            .field("cached_rects", &self.cache.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl ExtractionEngine {
    /// Builds an engine over `view` using the requested access path.
    pub fn new(view: NumericView, kind: IndexKind) -> Self {
        Self::from_arc(Arc::new(view), kind)
    }

    /// Builds an engine over a shared view, constructing the index on the
    /// ambient pool ([`Pool::from_env`]) and keeping that pool for batch
    /// calls.
    pub fn from_arc(view: Arc<NumericView>, kind: IndexKind) -> Self {
        Self::from_arc_with(view, kind, &Pool::from_env(0))
    }

    /// Builds an engine over a shared view, constructing the index on an
    /// explicit worker pool (kept for batch calls) and starting with a
    /// fresh, empty region cache. Indexes and batch results are identical
    /// for any thread count.
    pub fn from_arc_with(view: Arc<NumericView>, kind: IndexKind, pool: &Pool) -> Self {
        let index: Arc<dyn RegionIndex> = Arc::from(build_index(&view, kind, pool));
        Self {
            view,
            index,
            kind,
            stats: ExtractionStats::default(),
            pool: *pool,
            cache: SharedRegionCache::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The underlying view.
    pub fn view(&self) -> &NumericView {
        &self.view
    }

    /// Shared handle to the underlying view.
    pub fn view_arc(&self) -> Arc<NumericView> {
        Arc::clone(&self.view)
    }

    /// The built access path over [`ExtractionEngine::view`].
    pub fn index(&self) -> &dyn RegionIndex {
        self.index.as_ref()
    }

    /// The access-path kind.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// The worker pool batch calls run on.
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// Replaces the worker pool used by batch calls. Results are
    /// bit-identical for any pool size; only wall-clock time changes.
    pub fn set_pool(&mut self, pool: Pool) {
        self.pool = pool;
    }

    /// The tracer batch calls emit `wave` events to (disabled by default).
    /// Exploration phases also borrow it for their plan events.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs a tracer handle. Batch entry points emit one `wave` event
    /// per call with this wave's stat deltas; a disabled tracer costs one
    /// branch per batch.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of distinct rectangles currently cached.
    pub fn cached_regions(&self) -> usize {
        self.cache.len()
    }

    /// Replaces this engine's region-cache handle, typically with one
    /// shared with other engines over the same view (the caller keeps a
    /// clone to read aggregate counters).
    ///
    /// Sharing is safe by the never-invalidate contract (see
    /// [`SharedRegionCache`]): it changes which engine pays a miss, never
    /// what any query returns. The engine keeps booking its *own*
    /// hit/miss counters into [`ExtractionEngine::stats`]; the shared
    /// cache's [`SharedRegionCache::stats`] aggregates across holders.
    pub fn set_shared_cache(&mut self, cache: SharedRegionCache) {
        self.cache = cache;
    }

    /// Clones a lightweight per-session engine off this one: the view,
    /// the built index and the region cache are shared (the fork holds a
    /// clone of this engine's cache handle), and the stat counters start
    /// at zero. The fork inherits the access-path kind and worker pool;
    /// its tracer starts disabled (each session installs its own).
    ///
    /// This is the server's session-spawn path: one index build and one
    /// region cache serve every concurrent session over the view.
    pub fn fork_session(&self) -> ExtractionEngine {
        ExtractionEngine {
            view: Arc::clone(&self.view),
            index: Arc::clone(&self.index),
            kind: self.kind,
            stats: ExtractionStats::default(),
            pool: self.pool,
            cache: self.cache.clone(),
            tracer: Tracer::disabled(),
        }
    }

    /// Cost counters accumulated so far.
    pub fn stats(&self) -> ExtractionStats {
        self.stats
    }

    /// Resets the cost counters (e.g. between exploration iterations).
    /// Cached results are kept — the cache never goes stale.
    pub fn reset_stats(&mut self) {
        self.stats = ExtractionStats::default();
    }

    /// Emits one `wave` trace event carrying this batch call's stat
    /// deltas. The deltas and the event count are pure functions of the
    /// submitted rectangles and the cache state — never of the thread
    /// count — so traced content stays deterministic. One branch when the
    /// tracer is disabled.
    fn trace_wave(&self, rects: usize, before: ExtractionStats, start: Instant) {
        if !self.tracer.is_enabled() || rects == 0 {
            return;
        }
        let now = self.stats;
        self.tracer.wave(
            rects as u64,
            now.queries - before.queries,
            now.cache_hits - before.cache_hits,
            now.cache_misses - before.cache_misses,
            now.tuples_examined - before.tuples_examined,
            now.tuples_returned - before.tuples_returned,
            start.elapsed().as_micros() as u64,
        );
    }

    /// The cached single-rect path every single-rect entry point routes
    /// through: a hit is served from the cache, a miss runs against the
    /// index on the calling thread (never the pool) and is memoized.
    fn fetch<A: Answer>(&mut self, rect: &Rect) -> A {
        let hit = A::lookup(&mut self.cache.lock(), &rect.key());
        if let Some(hit) = hit {
            self.stats.book_hit(hit.cost().1);
            return hit;
        }
        let out = A::compute(&*self.index, &self.view, rect);
        let (examined, returned) = out.cost();
        self.stats.book_miss(examined, returned);
        A::store(&mut self.cache.lock(), rect, out.clone());
        out
    }

    /// All view indices inside `rect` (one extraction query).
    pub fn query_in(&mut self, rect: &Rect) -> Vec<u32> {
        let start = Instant::now();
        let out: Arc<QueryOutput> = self.fetch(rect);
        let indices = out.indices.clone();
        self.stats.elapsed += start.elapsed();
        indices
    }

    /// Number of points inside `rect` (one extraction query). Counts via
    /// [`RegionIndex::count`], which never materializes the matching-index
    /// vector — density probes over large rectangles stay allocation-free.
    pub fn count_in(&mut self, rect: &Rect) -> usize {
        let start = Instant::now();
        let out: CountOutput = self.fetch(rect);
        self.stats.elapsed += start.elapsed();
        out.count
    }

    /// Fraction of all points lying inside `rect` (one extraction query);
    /// 0 for an empty view. Drives the skew-aware γ adjustment (§3).
    pub fn density(&mut self, rect: &Rect) -> f64 {
        if self.view.is_empty() {
            return 0.0;
        }
        self.count_in(rect) as f64 / self.view.len() as f64
    }

    /// Keys `view_indices` (typically the session's labeled rows) for
    /// selection on this engine and its forks. Indices outside the view
    /// are dropped. Costs O(k log k) for k indices.
    pub fn exclusions(&self, view_indices: impl IntoIterator<Item = u32>) -> Exclusions {
        Exclusions::new(&*self.index, &self.view, view_indices, self.index_id())
    }

    /// Identity of the built index, shared by every fork.
    fn index_id(&self) -> usize {
        Arc::as_ptr(&self.index) as *const () as usize
    }

    /// Panics unless `excluded` was keyed for this engine's index.
    fn check_exclusions(&self, excluded: &Exclusions) {
        assert!(
            excluded.is_empty() || excluded.owner() == self.index_id(),
            "exclusions were built by an engine over another index"
        );
    }

    /// Up to `n` distinct uniformly random samples inside `rect`
    /// (one extraction query).
    pub fn sample_in<R: Rng + ?Sized>(
        &mut self,
        rect: &Rect,
        n: usize,
        rng: &mut R,
    ) -> Vec<Sample> {
        self.sample_in_excluding(rect, n, rng, &Exclusions::none())
    }

    /// Like [`ExtractionEngine::sample_in`] but never returns a row in
    /// `excluded` (the rows the user has already labeled). Re-showing a
    /// labeled object would waste user effort without adding training
    /// signal.
    ///
    /// # Panics
    ///
    /// Panics if `excluded` was built by an engine over another index.
    pub fn sample_in_excluding<R: Rng + ?Sized>(
        &mut self,
        rect: &Rect,
        n: usize,
        rng: &mut R,
        excluded: &Exclusions,
    ) -> Vec<Sample> {
        if n == 0 {
            return Vec::new();
        }
        self.check_exclusions(excluded);
        let start = Instant::now();
        let out: Arc<QueryOutput> = self.fetch(rect);
        let picked = Instant::now();
        let samples = self.select_excluding(&out, n, rng, excluded);
        self.stats.select += picked.elapsed();
        self.stats.elapsed += start.elapsed();
        samples
    }

    /// The RNG-consuming half of sampling, shared by the single-rect path
    /// and [`ExtractionEngine::select_batch_streams`]. RNG consumption
    /// depends only on the candidate count, so for a given query result
    /// this is bit-identical however the result was obtained (index,
    /// cache, serial or parallel). Charges no stats.
    ///
    /// The draw picks positions among the candidates left once the
    /// excluded raw positions (`hits`) are removed; each is mapped back to
    /// its raw position by skipping the hits at or before it, so the
    /// result is never copied.
    fn select_excluding<R: Rng + ?Sized>(
        &self,
        out: &QueryOutput,
        n: usize,
        rng: &mut R,
        excluded: &Exclusions,
    ) -> Vec<Sample> {
        if n == 0 {
            return Vec::new();
        }
        let hits = excluded.hits(out);
        let len = out.indices.len() - hits.len();
        let sample = |raw: usize| {
            let i = out.indices[raw] as usize;
            Sample {
                view_index: i as u32,
                row_id: self.view.row_id(i),
                point: self.view.point_vec(i),
            }
        };
        if len <= n {
            // Every candidate, in result order.
            let mut skip = hits.iter().peekable();
            return (0..out.indices.len())
                .filter(|&raw| skip.next_if(|&&h| h as usize == raw).is_none())
                .map(sample)
                .collect();
        }
        rng.sample_indices(len, n)
            .into_iter()
            .map(|p| sample(raw_position(&hits, p)))
            .collect()
    }

    /// Number of candidates a query result holds after removing `excluded`
    /// rows — the exact yield of a selection asking for at least this
    /// many samples. RNG-free: phases use it to settle
    /// budget propagation *before* selection, so selection itself can run
    /// on pre-split streams without changing how much later areas receive.
    pub fn count_candidates(&self, out: &QueryOutput, excluded: &Exclusions) -> usize {
        self.check_exclusions(excluded);
        out.indices.len() - excluded.count_hits(out)
    }

    /// Whether a query result still holds at least one candidate after
    /// removing `excluded` rows. RNG-free — phases use it to decide
    /// fallback queries *before* any selection draw happens, which is what
    /// lets them batch all queries ahead of selection.
    pub fn has_candidates(&self, out: &QueryOutput, excluded: &Exclusions) -> bool {
        self.check_exclusions(excluded);
        // A result larger than the whole exclusion set always keeps one.
        out.indices.len() > excluded.len() || out.indices.len() > excluded.count_hits(out)
    }

    /// The batch policy behind [`ExtractionEngine::query_batch_outputs`]
    /// and [`ExtractionEngine::count_batch`], results in input order.
    ///
    /// Previously seen rectangles are served from the cache, and
    /// bit-identical duplicates *within* the batch run once: the first
    /// occurrence is the miss, later ones are hits — exactly the
    /// accounting a serial loop of single-rect calls would produce. The
    /// misses run in one pool pass and are then booked and memoized. The
    /// cache lock is taken once for all lookups and once for all inserts.
    fn resolve_batch<A: Answer>(&mut self, rects: &[Rect]) -> Vec<A> {
        let start = Instant::now();
        let before = self.stats;
        let mut results: Vec<Option<A>> = vec![None; rects.len()];
        // dup_of[i] = earlier batch position with a bit-identical rect.
        let mut dup_of: Vec<Option<usize>> = vec![None; rects.len()];
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut cache = self.cache.lock();
            let mut first_seen: HashMap<RectKey, usize> = HashMap::new();
            for (i, rect) in rects.iter().enumerate() {
                let key = rect.key();
                if let Some(hit) = A::lookup(&mut cache, &key) {
                    self.stats.book_hit(hit.cost().1);
                    results[i] = Some(hit);
                } else if let Some(&j) = first_seen.get(&key) {
                    dup_of[i] = Some(j);
                } else {
                    first_seen.insert(key, i);
                    misses.push(i);
                }
            }
        }

        // The parallel pass: RNG-free index queries only, one work item
        // per cache miss. Chunk size 1 and chunk-index-order reassembly
        // keep results in input order for any thread count.
        let (view, index) = (&*self.view, &*self.index);
        let fresh: Vec<A> = self.pool.par_map_collect(misses.len(), 1, |r| {
            r.map(|m| A::compute(index, view, &rects[misses[m]]))
                .collect()
        });

        {
            let mut cache = self.cache.lock();
            for (out, &i) in fresh.into_iter().zip(&misses) {
                let (examined, returned) = out.cost();
                self.stats.book_miss(examined, returned);
                A::store(&mut cache, &rects[i], out.clone());
                results[i] = Some(out);
            }
        }
        for i in 0..rects.len() {
            if let Some(j) = dup_of[i] {
                let out = results[j].clone().expect("first occurrence resolved");
                self.stats.book_hit(out.cost().1);
                results[i] = Some(out);
            }
        }
        self.stats.elapsed += start.elapsed();
        self.trace_wave(rects.len(), before, start);
        results
            .into_iter()
            .map(|r| r.expect("every rect resolved"))
            .collect()
    }

    /// Answers every rectangle in one pool pass, results in input order,
    /// with costs (hit/miss pattern included) identical to a serial loop
    /// over [`ExtractionEngine::query_in`].
    pub fn query_batch_outputs(&mut self, rects: &[Rect]) -> Vec<Arc<QueryOutput>> {
        self.resolve_batch(rects)
    }

    /// Batch variant of [`ExtractionEngine::query_in`]: all matching view
    /// indices per rectangle, in input order, answered in one pool pass.
    ///
    /// ```
    /// use aide_data::view::{Domain, NumericView, SpaceMapper};
    /// use aide_index::{ExtractionEngine, IndexKind};
    /// use aide_util::geom::Rect;
    ///
    /// let mapper = SpaceMapper::new(
    ///     vec!["x".into(), "y".into()],
    ///     vec![Domain::new(0.0, 10.0); 2],
    /// );
    /// let data = vec![1.0, 1.0, 5.0, 5.0, 9.0, 9.0]; // three 2-D points
    /// let view = NumericView::new(mapper, data, vec![0, 1, 2]);
    /// let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
    ///
    /// let rects = vec![
    ///     Rect::new(vec![0.0, 0.0], vec![6.0, 6.0]),
    ///     Rect::new(vec![4.0, 4.0], vec![10.0, 10.0]),
    /// ];
    /// // One pool pass; results in input order, identical to a serial
    /// // loop of `query_in` calls (costs included) for any thread count.
    /// let results = engine.query_batch(&rects);
    /// assert_eq!(results, vec![vec![0, 1], vec![1, 2]]);
    /// assert_eq!(engine.stats().queries, 2);
    /// ```
    pub fn query_batch(&mut self, rects: &[Rect]) -> Vec<Vec<u32>> {
        self.query_batch_outputs(rects)
            .into_iter()
            .map(|out| out.indices.clone())
            .collect()
    }

    /// Batch variant of [`ExtractionEngine::count_in`]: per-rect counts in
    /// input order, answered in one pool pass with the same cache and
    /// duplicate handling as [`ExtractionEngine::query_batch_outputs`].
    pub fn count_batch(&mut self, rects: &[Rect]) -> Vec<usize> {
        self.resolve_batch::<CountOutput>(rects)
            .into_iter()
            .map(|out| out.count)
            .collect()
    }

    /// Selects samples from a wave's query outputs (phases make RNG-free
    /// fallback decisions between the query pass and selection): streams
    /// are pre-split off `rng` ([`Xoshiro256pp::split_streams`]) for the
    /// positions with `want > 0` (in input order; `rng` advances by
    /// exactly one draw) and each position selects up to its `want`
    /// samples on its own stream inside the pool pass. Deterministic for
    /// any thread count. Books only its wall-clock time
    /// ([`ExtractionStats::select`]).
    ///
    /// # Panics
    ///
    /// Panics if the lengths of `outputs` and `wants` differ, or if
    /// `excluded` was built by an engine over another index.
    pub fn select_batch_streams(
        &mut self,
        outputs: &[Arc<QueryOutput>],
        wants: &[usize],
        rng: &mut Xoshiro256pp,
        excluded: &Exclusions,
    ) -> Vec<Vec<Sample>> {
        assert_eq!(outputs.len(), wants.len(), "one want per output");
        self.check_exclusions(excluded);
        let start = Instant::now();
        let active: Vec<usize> = (0..wants.len()).filter(|&i| wants[i] > 0).collect();
        let streams = rng.split_streams(active.len());
        let pool = self.pool;
        let selected: Vec<Vec<Sample>> = pool.par_map_collect(active.len(), 1, |r| {
            r.map(|k| {
                let mut stream = streams[k].clone();
                self.select_excluding(&outputs[active[k]], wants[active[k]], &mut stream, excluded)
            })
            .collect()
        });
        self.stats.select += start.elapsed();
        let mut results: Vec<Vec<Sample>> = vec![Vec::new(); wants.len()];
        for (samples, &i) in selected.into_iter().zip(&active) {
            results[i] = samples;
        }
        results
    }
}

/// Builds the access path for `view` on `pool`.
fn build_index(view: &NumericView, kind: IndexKind, pool: &Pool) -> Box<dyn RegionIndex> {
    match kind {
        IndexKind::Grid => Box::new(GridIndex::build_with(view, pool)),
        IndexKind::Scan => Box::new(ScanIndex::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheStats;
    use aide_data::view::{Domain, SpaceMapper};

    fn grid_view(n_per_side: usize) -> NumericView {
        // Regular lattice so counts are exact.
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let mut data = Vec::new();
        let step = 100.0 / (n_per_side - 1) as f64;
        for i in 0..n_per_side {
            for j in 0..n_per_side {
                data.push(i as f64 * step);
                data.push(j as f64 * step);
            }
        }
        let n = n_per_side * n_per_side;
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    #[test]
    fn all_index_kinds_agree() {
        let view = grid_view(30);
        let rect = Rect::new(vec![10.0, 10.0], vec![55.0, 40.0]);
        let mut counts = Vec::new();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let mut engine = ExtractionEngine::new(view.clone(), kind);
            counts.push(engine.count_in(&rect));
        }
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "paths disagree: {counts:?}"
        );
        assert!(counts[0] > 0);
    }

    #[test]
    fn sampling_respects_rect_count_and_exclusions() {
        let view = grid_view(20);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let rect = Rect::new(vec![0.0, 0.0], vec![30.0, 30.0]);
        let samples = engine.sample_in(&rect, 10, &mut rng);
        assert_eq!(samples.len(), 10);
        for s in &samples {
            assert!(rect.contains(&s.point));
        }
        // Distinctness.
        let mut ids: Vec<u32> = samples.iter().map(|s| s.row_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        // Exclusion removes previously labeled rows.
        let excluded = engine.exclusions(samples.iter().map(|s| s.view_index));
        let more = engine.sample_in_excluding(&rect, 1_000, &mut rng, &excluded);
        assert_eq!(more.len(), engine.query_in(&rect).len() - 10);
        assert!(more.iter().all(|s| !ids.contains(&s.row_id)));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let view = grid_view(10);
        let mut engine = ExtractionEngine::new(view, IndexKind::Scan);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let rect = Rect::full_domain(2);
        engine.sample_in(&rect, 5, &mut rng); // miss: scans all 100 points
        engine.count_in(&rect); // hit: served off the cached query result
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.tuples_examined, 100);
        assert_eq!(stats.tuples_returned, 200);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        engine.reset_stats();
        assert_eq!(engine.stats(), ExtractionStats::default());
    }

    #[test]
    fn second_identical_count_is_a_cache_hit_charging_zero_examined() {
        // The satellite bugfix: density() / γ-adjustment probes re-issue
        // bit-identical rectangles every iteration; the repeat must be a
        // hit and must not re-examine any tuple.
        let view = grid_view(10);
        let mut engine = ExtractionEngine::new(view, IndexKind::Scan);
        let rect = Rect::full_domain(2);
        let first = engine.count_in(&rect);
        let examined_once = engine.stats().tuples_examined;
        assert_eq!(examined_once, 100, "scan examines the whole view once");
        let second = engine.count_in(&rect);
        let stats = engine.stats();
        assert_eq!(first, second);
        assert_eq!(stats.queries, 2, "a hit still counts as a query");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(
            stats.tuples_examined, examined_once,
            "the cache hit charged 0 tuples_examined"
        );
        // A full query over the same rect is another hit? No: the count
        // entry cannot materialize indices, so the query runs once...
        engine.query_in(&rect);
        assert_eq!(engine.stats().cache_misses, 2);
        // ...and from then on both query and count are hits.
        engine.query_in(&rect);
        engine.count_in(&rect);
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 3);
        assert_eq!(stats.tuples_examined, 2 * examined_once);
    }

    #[test]
    fn cached_sampling_matches_uncached_sampling_bitwise() {
        let view = grid_view(20);
        let rect = Rect::new(vec![0.0, 0.0], vec![40.0, 40.0]);
        let mut cached = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        // Cold reference: every call runs on a fork with a fresh cache.
        let template = ExtractionEngine::new(view, IndexKind::Grid);
        let mut cold_examined = 0;
        let mut rng_a = Xoshiro256pp::seed_from_u64(7);
        let mut rng_b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..3 {
            let mut cold = template.fork_session();
            cold.set_shared_cache(SharedRegionCache::new());
            let a = cached.sample_in(&rect, 6, &mut rng_a);
            let b = cold.sample_in(&rect, 6, &mut rng_b);
            assert_eq!(a, b);
            assert_eq!(cold.stats().cache_hits, 0);
            cold_examined += cold.stats().tuples_examined;
        }
        assert_eq!(cached.stats().cache_hits, 2);
        assert!(cached.stats().tuples_examined < cold_examined);
    }

    #[test]
    fn batch_results_match_serial_loop_and_any_thread_count() {
        let view = grid_view(25);
        let rects: Vec<Rect> = (0..12)
            .map(|i| {
                let lo = (i * 7 % 50) as f64;
                Rect::new(vec![lo, lo / 2.0], vec![lo + 23.0, lo / 2.0 + 31.0])
            })
            .collect();
        // Duplicate one rect to exercise within-batch dedup.
        let mut rects = rects;
        rects.push(rects[3].clone());

        let mut serial = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        let serial_counts: Vec<usize> = rects.iter().map(|r| serial.count_in(r)).collect();
        let serial_queries: Vec<Vec<u32>> = rects.iter().map(|r| serial.query_in(r)).collect();

        for threads in [1, 4] {
            let mut batch = ExtractionEngine::new(view.clone(), IndexKind::Grid);
            batch.set_pool(Pool::new(threads));
            assert_eq!(batch.count_batch(&rects), serial_counts, "{threads} threads");
            assert_eq!(batch.query_batch(&rects), serial_queries, "{threads} threads");
            // Totals match the serial loop exactly (hit/miss pattern too).
            assert_eq!(batch.stats().queries, serial.stats().queries);
            assert_eq!(batch.stats().tuples_examined, serial.stats().tuples_examined);
            assert_eq!(batch.stats().cache_hits, serial.stats().cache_hits);
        }
    }

    #[test]
    fn batch_selection_matches_serial_selection_on_presplit_streams() {
        let view = grid_view(25);
        let rects: Vec<Rect> = (0..10)
            .map(|i| {
                let lo = (i * 11 % 60) as f64;
                Rect::new(vec![lo, 0.0], vec![lo + 19.0, 45.0])
            })
            .collect();
        let wants: Vec<usize> = (0..10).map(|i| if i == 4 { 0 } else { 3 + i % 4 }).collect();
        let labeled = [5, 90, 311];

        // Reference: serial single-rect queries, then serial selection on
        // the same pre-split streams `select_batch_streams` hands out.
        let mut serial = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        let excluded = serial.exclusions(labeled);
        let outputs: Vec<Arc<QueryOutput>> = rects.iter().map(|r| serial.fetch(r)).collect();
        let mut rng_s = Xoshiro256pp::seed_from_u64(42);
        let mut streams = rng_s.split_streams(wants.iter().filter(|&&w| w > 0).count());
        let mut next = 0;
        let want: Vec<Vec<Sample>> = outputs
            .iter()
            .zip(&wants)
            .map(|(out, &n)| {
                if n == 0 {
                    return Vec::new();
                }
                next += 1;
                serial.select_excluding(out, n, &mut streams[next - 1], &excluded)
            })
            .collect();

        for threads in [1, 4] {
            let mut batch = ExtractionEngine::new(view.clone(), IndexKind::Grid);
            batch.set_pool(Pool::new(threads));
            let excluded = batch.exclusions(labeled);
            let mut rng_b = Xoshiro256pp::seed_from_u64(42);
            let outs = batch.query_batch_outputs(&rects);
            let got = batch.select_batch_streams(&outs, &wants, &mut rng_b, &excluded);
            assert_eq!(got, want, "{threads} threads");
            for ((rect, &n), samples) in rects.iter().zip(&wants).zip(&got) {
                assert!(samples.len() <= n);
                assert!(samples.iter().all(|s| rect.contains(&s.point)));
                assert!(samples.iter().all(|s| !labeled.contains(&s.row_id)));
            }
            // The caller RNG advanced by exactly the split, like the reference.
            assert_eq!(rng_b.next_u64(), rng_s.clone().next_u64(), "{threads} threads");
            assert_eq!(batch.stats().queries, serial.stats().queries);
        }
    }

    #[test]
    fn batch_calls_emit_one_wave_event_with_stat_deltas() {
        use aide_util::trace::{Tracer, Value};
        let view = grid_view(10);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let tracer = Tracer::ring(64);
        engine.set_tracer(tracer.clone());
        let rects = vec![Rect::full_domain(2), Rect::full_domain(2)];
        engine.query_batch(&rects); // miss + within-batch hit
        engine.count_batch(&rects); // both hits (count served off query entries)
        let events = tracer.drain();
        assert_eq!(events.len(), 2, "one wave per batch call, none for singles");
        assert_eq!(events[0].kind, "wave");
        let field = |e: &aide_util::trace::Event, name: &str| {
            e.fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .expect("field present")
        };
        assert_eq!(field(&events[0], "rects"), Value::U64(2));
        assert_eq!(field(&events[0], "queries"), Value::U64(2));
        assert_eq!(field(&events[0], "cache_hits"), Value::U64(1));
        assert_eq!(field(&events[0], "cache_misses"), Value::U64(1));
        assert_eq!(field(&events[1], "cache_hits"), Value::U64(2));
        assert_eq!(field(&events[1], "tuples_examined"), Value::U64(0));
        // Wave counter advances within the ambient phase.
        assert_eq!(field(&events[0], "wave"), Value::U64(0));
        assert_eq!(field(&events[1], "wave"), Value::U64(1));
        // Empty batches stay silent.
        engine.query_batch(&[]);
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn forked_engines_share_cache_and_results_stay_bitwise_identical() {
        let view = grid_view(20);
        let rect = Rect::new(vec![0.0, 0.0], vec![40.0, 40.0]);
        // Reference: a lone engine with its own cache.
        let mut lone = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        let mut rng_l = Xoshiro256pp::seed_from_u64(7);
        let want = lone.sample_in(&rect, 6, &mut rng_l);

        let mut host = ExtractionEngine::new(view, IndexKind::Grid);
        let shared = SharedRegionCache::new();
        host.set_shared_cache(shared.clone());
        let mut a = host.fork_session();
        let mut b = host.fork_session();
        let mut rng_a = Xoshiro256pp::seed_from_u64(7);
        let mut rng_b = Xoshiro256pp::seed_from_u64(7);
        // Session A pays the miss…
        assert_eq!(a.sample_in(&rect, 6, &mut rng_a), want);
        assert_eq!(a.stats().cache_misses, 1);
        assert!(a.stats().tuples_examined > 0);
        // …and session B hits A's entry: identical samples, zero examined.
        assert_eq!(b.sample_in(&rect, 6, &mut rng_b), want);
        assert_eq!(b.stats().cache_hits, 1);
        assert_eq!(b.stats().tuples_examined, 0);
        // The shared counters aggregate across holders.
        assert_eq!(shared.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn a_fork_shares_its_parents_cache() {
        let view = grid_view(10);
        let mut host = ExtractionEngine::new(view, IndexKind::Grid);
        host.query_in(&Rect::full_domain(2));
        assert_eq!(host.cached_regions(), 1);
        let mut fork = host.fork_session();
        assert_eq!(fork.cached_regions(), 1, "the fork sees the parent's entry");
        fork.query_in(&Rect::full_domain(2));
        assert_eq!(fork.stats().cache_hits, 1);
        assert_eq!(fork.stats().tuples_examined, 0);
        // Entries the fork adds are visible to the parent too.
        fork.count_in(&Rect::new(vec![0.0, 0.0], vec![50.0, 50.0]));
        assert_eq!(host.cached_regions(), 2);
    }

    #[test]
    fn scan_examines_more_than_grid_for_small_rects() {
        let view = grid_view(50);
        let rect = Rect::new(vec![10.0, 10.0], vec![14.0, 14.0]);
        let mut grid = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        let mut scan = ExtractionEngine::new(view, IndexKind::Scan);
        grid.count_in(&rect);
        scan.count_in(&rect);
        assert!(grid.stats().tuples_examined < scan.stats().tuples_examined);
    }

    #[test]
    fn sample_zero_is_free_of_queries() {
        let view = grid_view(5);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let out = engine.sample_in(&Rect::full_domain(2), 0, &mut rng);
        assert!(out.is_empty());
        assert_eq!(engine.stats().queries, 0);
    }

    #[test]
    fn exclusions_belong_to_the_engine_and_its_forks() {
        let view = grid_view(10);
        let host = ExtractionEngine::new(view.clone(), IndexKind::Grid);
        let mut fork = host.fork_session();
        let excluded = host.exclusions([3, 3, 7, 100, u32::MAX]);
        assert_eq!(excluded.len(), 2, "duplicates and out-of-view indices drop");
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let all = fork.sample_in_excluding(&Rect::full_domain(2), 1_000, &mut rng, &excluded);
        assert_eq!(all.len(), 98);
        assert!(all.iter().all(|s| s.view_index != 3 && s.view_index != 7));
        // An engine with its own index refuses them.
        let mut other = ExtractionEngine::new(view, IndexKind::Grid);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.sample_in_excluding(&Rect::full_domain(2), 1, &mut rng, &excluded)
        }));
        assert!(refused.is_err());
    }

    #[test]
    fn selection_time_is_booked() {
        let view = grid_view(10);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let outs = engine.query_batch_outputs(&[Rect::full_domain(2)]);
        assert_eq!(engine.stats().select, Duration::ZERO);
        let got = engine.select_batch_streams(&outs, &[3], &mut rng, &Exclusions::none());
        assert_eq!(got[0].len(), 3);
        assert!(engine.stats().select > Duration::ZERO);
    }

    #[test]
    fn density_is_count_over_total() {
        let view = grid_view(10); // 100 points
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let d = engine.density(&Rect::full_domain(2));
        assert!((d - 1.0).abs() < 1e-12);
    }
}
