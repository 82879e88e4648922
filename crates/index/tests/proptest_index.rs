//! Property-based tests: every access path answers rectangle queries
//! identically to a brute-force scan, and sampling honors its contract —
//! running on the hermetic `aide-testkit` harness.

use std::collections::HashSet;
use std::sync::Arc;

use aide_data::view::{Domain, SpaceMapper};
use aide_data::NumericView;
use aide_index::{
    ExtractionEngine, GridIndex, IndexKind, QueryOutput, RegionIndex, ScanIndex, SharedRegionCache,
};
use aide_testkit::prop::gen;
use aide_testkit::{forall, prop_assert, prop_assert_eq};
use aide_util::geom::{Rect, RectKey};
use aide_util::par::Pool;
use aide_util::rng::{Rng as _, Xoshiro256pp};

/// Raw 2-d points in the normalized space; the `NumericView` is built in
/// the property body so the point list keeps shrinking.
fn points_gen() -> impl gen::Gen<Value = Vec<(f64, f64)>> {
    gen::vec_of((gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)), 0..300)
}

fn view_from(points: &[(f64, f64)]) -> NumericView {
    let mapper = SpaceMapper::new(
        vec!["x".into(), "y".into()],
        vec![Domain::new(0.0, 100.0); 2],
    );
    let data: Vec<f64> = points.iter().flat_map(|&(x, y)| [x, y]).collect();
    let n = points.len();
    NumericView::new(mapper, data, (0..n as u32).collect())
}

/// Two corner points; the `Rect` is normalized in the property body.
fn rect_corners() -> impl gen::Gen<Value = ((f64, f64), (f64, f64))> {
    (
        (gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)),
        (gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)),
    )
}

fn rect_from((a, b): &((f64, f64), (f64, f64))) -> Rect {
    Rect::new(
        vec![a.0.min(b.0), a.1.min(b.1)],
        vec![a.0.max(b.0), a.1.max(b.1)],
    )
}

/// The bare access path an engine of `kind` queries, built directly.
fn direct_index(view: &NumericView, kind: IndexKind) -> Box<dyn RegionIndex> {
    match kind {
        IndexKind::Grid => Box::new(GridIndex::build(view)),
        IndexKind::Scan => Box::new(ScanIndex::new()),
    }
}

forall! {
    cases = 64;

    fn all_access_paths_agree_with_brute_force(
        points in points_gen(),
        corners in rect_corners(),
    ) {
        let view = view_from(&points);
        let rect = rect_from(&corners);
        let mut expected: Vec<u32> = view
            .indices_in(&rect)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        expected.sort_unstable();

        let grid = GridIndex::build(&view);
        let scan = ScanIndex::new();
        let paths: [&dyn RegionIndex; 2] = [&grid, &scan];
        for path in paths {
            let mut got = path.query(&view, &rect).indices;
            got.sort_unstable();
            prop_assert_eq!(&got, &expected, "path {} disagrees", path.name());
        }
    }

    fn sampling_returns_distinct_in_rect_points(
        points in points_gen(),
        corners in rect_corners(),
        n in gen::usize_in(0..50),
        seed in gen::any_u64(),
    ) {
        let view = view_from(&points);
        let rect = rect_from(&corners);
        let inside = view.count_in(&rect);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let samples = engine.sample_in(&rect, n, &mut rng);
        prop_assert_eq!(samples.len(), n.min(inside));
        let ids: HashSet<u32> = samples.iter().map(|s| s.row_id).collect();
        prop_assert_eq!(ids.len(), samples.len(), "duplicate samples");
        for s in &samples {
            prop_assert!(rect.contains(&s.point));
        }
    }

    /// The batched, cached engine is indistinguishable from the bare
    /// access path: for an arbitrary rect set, sample sizes, seed and
    /// thread count, `query_batch_outputs` + `select_batch_streams` and
    /// `count_batch` return bit-identical samples and counts — and leave
    /// the RNG in the same state — as `RegionIndex::query`/`count` on a
    /// directly built index, selected on the same pre-split streams, for
    /// both access paths. A second, fully warm batch must agree too.
    fn batched_cached_engine_matches_fresh_serial_engine(
        points in points_gen(),
        all_corners in gen::vec_of(rect_corners(), 0..6),
        n in gen::usize_in(0..20),
        seed in gen::any_u64(),
        threads in gen::usize_in(1..5),
    ) {
        let rects: Vec<Rect> = all_corners.iter().map(rect_from).collect();
        let wants: Vec<usize> = (0..rects.len()).map(|i| (n + i) % 20).collect();
        let excluded = HashSet::new();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            // Reference: the access path itself, one query per rect, no cache.
            let view = view_from(&points);
            let index = direct_index(&view, kind);
            let outputs: Vec<Arc<QueryOutput>> =
                rects.iter().map(|r| Arc::new(index.query(&view, r))).collect();
            let expected_counts: Vec<usize> =
                rects.iter().map(|r| index.count(&view, r).count).collect();
            let selector = ExtractionEngine::new(view, kind);
            let mut rng_s = Xoshiro256pp::seed_from_u64(seed);
            let expected = selector.select_batch_streams(&outputs, &wants, &mut rng_s, &excluded);

            // Subject: cached engine, explicit multi-thread pool.
            let mut batched = ExtractionEngine::new(view_from(&points), kind);
            batched.set_pool(Pool::new(threads));
            let mut rng_b = Xoshiro256pp::seed_from_u64(seed);
            let outs = batched.query_batch_outputs(&rects);
            let got = batched.select_batch_streams(&outs, &wants, &mut rng_b, &excluded);
            prop_assert_eq!(&got, &expected, "samples diverge on {:?} t{}", kind, threads);
            prop_assert_eq!(
                rng_b.next_u64(),
                rng_s.next_u64(),
                "RNG state diverges on {:?} t{}", kind, threads
            );
            let counts = batched.count_batch(&rects);
            prop_assert_eq!(&counts, &expected_counts, "counts diverge on {:?}", kind);

            // Warm re-run: every answer now comes from the cache.
            let mut rng_w = Xoshiro256pp::seed_from_u64(seed);
            let outs = batched.query_batch_outputs(&rects);
            let warm = batched.select_batch_streams(&outs, &wants, &mut rng_w, &excluded);
            prop_assert_eq!(&warm, &expected, "warm cache diverges on {:?}", kind);
        }
    }

    /// `select_batch_streams` is nothing more than serial selection on
    /// pre-split RNG streams: for any rect set, sizes, seed, index kind
    /// and thread count, it returns exactly what a serial loop returns
    /// when each active request (n > 0) samples with its own stream from
    /// `split_streams`, and it advances the parent RNG identically.
    fn select_batch_streams_match_serial_selection_on_presplit_rngs(
        points in points_gen(),
        all_corners in gen::vec_of(rect_corners(), 0..6),
        n in gen::usize_in(0..20),
        seed in gen::any_u64(),
        threads in gen::usize_in(1..5),
    ) {
        let excluded = HashSet::new();
        let rects: Vec<Rect> = all_corners.iter().map(rect_from).collect();
        let wants: Vec<usize> = (0..rects.len()).map(|i| (n + i) % 20).collect();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            // Reference: split the parent by hand, then sample each
            // active request serially with its own stream.
            let mut serial = ExtractionEngine::new(view_from(&points), kind);
            serial.set_pool(Pool::serial());
            let mut rng_s = Xoshiro256pp::seed_from_u64(seed);
            let active: Vec<usize> = (0..wants.len()).filter(|&i| wants[i] > 0).collect();
            let mut streams = rng_s.split_streams(active.len());
            let mut expected: Vec<Vec<_>> = vec![Vec::new(); wants.len()];
            for (k, &i) in active.iter().enumerate() {
                expected[i] =
                    serial.sample_in_excluding(&rects[i], wants[i], &mut streams[k], &excluded);
            }

            let mut batched = ExtractionEngine::new(view_from(&points), kind);
            batched.set_pool(Pool::new(threads));
            let mut rng_b = Xoshiro256pp::seed_from_u64(seed);
            let outs = batched.query_batch_outputs(&rects);
            let got = batched.select_batch_streams(&outs, &wants, &mut rng_b, &excluded);
            prop_assert_eq!(&got, &expected, "streams diverge on {:?} t{}", kind, threads);
            prop_assert_eq!(
                rng_b.next_u64(),
                rng_s.next_u64(),
                "parent RNG diverges on {:?} t{}", kind, threads
            );
        }
    }

    fn exclusions_are_respected(
        points in points_gen(),
        corners in rect_corners(),
        seed in gen::any_u64(),
    ) {
        let view = view_from(&points);
        let rect = rect_from(&corners);
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let first = engine.sample_in(&rect, 10, &mut rng);
        let excluded: HashSet<u32> = first.iter().map(|s| s.row_id).collect();
        let second = engine.sample_in_excluding(&rect, 1_000, &mut rng, &excluded);
        for s in &second {
            prop_assert!(!excluded.contains(&s.row_id));
        }
    }

    /// The columnar containment kernel is the row-major filter, bit for
    /// bit: for arbitrary dimensionality, data, rectangle and thread
    /// count, `scan_rect_into`/`count_rect`/the order-
    /// preserving candidate filter — and every engine access path built
    /// on them — agree with an explicit row-major `Rect::contains` loop
    /// over the original flat array.
    fn columnar_kernel_matches_row_major_reference(
        raw in gen::vec_of(gen::f64_in(0.0..100.0), 0..600),
        corners_raw in gen::vec_of(gen::f64_in(0.0..100.0), 8..9),
        dims in gen::usize_in(1..5),
        threads in gen::usize_in(1..5),
    ) {
        let n = raw.len() / dims;
        let data = &raw[..n * dims];
        let rect = Rect::new(
            (0..dims).map(|d| corners_raw[2 * d].min(corners_raw[2 * d + 1])).collect(),
            (0..dims).map(|d| corners_raw[2 * d].max(corners_raw[2 * d + 1])).collect(),
        );
        let make_view = || {
            let mapper = SpaceMapper::new(
                (0..dims).map(|d| format!("a{d}")).collect(),
                vec![Domain::new(0.0, 100.0); dims],
            );
            NumericView::new(mapper, data.to_vec(), (0..n as u32).collect())
        };
        let view = make_view();

        // Row-major reference: the pre-columnar per-row filter.
        let expected: Vec<u32> = (0..n)
            .filter(|&i| rect.contains(&data[i * dims..(i + 1) * dims]))
            .map(|i| i as u32)
            .collect();

        let mut got = Vec::new();
        view.scan_rect_into(&rect, 0, n, &mut got);
        prop_assert_eq!(&got, &expected, "scan_rect_into");
        prop_assert_eq!(view.count_rect(&rect, 0, n), expected.len(), "count_rect");

        // Sub-range sweeps partition the full answer.
        let mid = n / 2;
        let mut halves = Vec::new();
        view.scan_rect_into(&rect, 0, mid, &mut halves);
        view.scan_rect_into(&rect, mid, n, &mut halves);
        prop_assert_eq!(&halves, &expected, "sub-range partition");

        // The candidate filter preserves an arbitrary candidate order.
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let mut filtered = Vec::new();
        view.filter_indices_into(&rect, &reversed, &mut filtered);
        let mut expected_rev = expected.clone();
        expected_rev.reverse();
        prop_assert_eq!(&filtered, &expected_rev, "candidate order");
        prop_assert_eq!(view.count_indices(&rect, &reversed), expected.len());

        // Every access path (any thread count) agrees.
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let mut engine = ExtractionEngine::new(make_view(), kind);
            engine.set_pool(Pool::new(threads));
            prop_assert_eq!(
                engine.count_in(&rect),
                expected.len(),
                "engine {:?} t{}", kind, threads
            );
        }
    }

    /// A shared, warm region cache is invisible. Two forks of one engine
    /// share its cache and run an interleaved sequence of `query_in`,
    /// `count_in`, `sample_in_excluding`, `query_batch_outputs` +
    /// `select_batch_streams` and `count_batch` calls over a small rect
    /// pool, so rectangles repeat within calls, across calls and across
    /// forks. Every answer — indices, counts, samples and each fork's RNG
    /// state — equals a cold-cache reference (the bare access path, or a
    /// fork with a fresh cache where selection is involved), and the
    /// hit/miss pattern follows a model of the cache: a hit charges 0
    /// `tuples_examined`, a miss charges what the access path examines.
    fn shared_warm_cache_answers_like_a_cold_cache(
        points in points_gen(),
        pool_corners in gen::vec_of(rect_corners(), 1..5),
        ops in gen::vec_of(
            (gen::usize_in(0..5), gen::usize_in(0..64), gen::any_bool(), gen::usize_in(0..12)),
            0..24,
        ),
        seed in gen::any_u64(),
        threads in gen::usize_in(1..5),
    ) {
        let pool_rects: Vec<Rect> = pool_corners.iter().map(rect_from).collect();
        let pick = |p: usize| pool_rects[p % pool_rects.len()].clone();
        let excluded: HashSet<u32> = (0..points.len() as u32).filter(|i| i % 5 == 0).collect();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let view = Arc::new(view_from(&points));
            let index = direct_index(&view, kind);
            let mut template = ExtractionEngine::from_arc(Arc::clone(&view), kind);
            template.set_pool(Pool::new(threads));
            let mut forks = [template.fork_session(), template.fork_session()];
            let cold = || {
                let mut engine = template.fork_session();
                engine.set_shared_cache(SharedRegionCache::new());
                engine
            };
            let mut rngs = [
                Xoshiro256pp::seed_from_u64(seed),
                Xoshiro256pp::seed_from_u64(seed ^ 1),
            ];
            let mut ref_rngs = rngs.clone();
            // The cache model: keys holding a full query result, and keys
            // holding only a count.
            let mut queried: HashSet<RectKey> = HashSet::new();
            let mut counted: HashSet<RectKey> = HashSet::new();
            for &(op, p, second, n) in &ops {
                let f = usize::from(second);
                let rects: Vec<Rect> = if op < 3 {
                    vec![pick(p)]
                } else {
                    vec![pick(p), pick(p / 3), pick(p / 7)]
                };
                let is_query = matches!(op, 0 | 2 | 3);
                let (mut hits, mut examined) = (0u64, 0u64);
                for r in &rects {
                    let key = r.key();
                    if queried.contains(&key) || (!is_query && counted.contains(&key)) {
                        hits += 1;
                    } else if is_query {
                        examined += index.query(&view, r).examined as u64;
                        queried.insert(key);
                    } else {
                        examined += index.count(&view, r).examined as u64;
                        counted.insert(key);
                    }
                }

                let before = forks[f].stats();
                match op {
                    0 => prop_assert_eq!(
                        forks[f].query_in(&rects[0]),
                        index.query(&view, &rects[0]).indices,
                        "query_in on {:?}", kind
                    ),
                    1 => prop_assert_eq!(
                        forks[f].count_in(&rects[0]),
                        index.count(&view, &rects[0]).count,
                        "count_in on {:?}", kind
                    ),
                    2 => {
                        let got =
                            forks[f].sample_in_excluding(&rects[0], n + 1, &mut rngs[f], &excluded);
                        let want =
                            cold().sample_in_excluding(&rects[0], n + 1, &mut ref_rngs[f], &excluded);
                        prop_assert_eq!(got, want, "sample_in_excluding on {:?}", kind);
                    }
                    3 => {
                        let wants: Vec<usize> = (0..rects.len()).map(|j| (n + j) % 12).collect();
                        let outs = forks[f].query_batch_outputs(&rects);
                        let got =
                            forks[f].select_batch_streams(&outs, &wants, &mut rngs[f], &excluded);
                        let mut reference = cold();
                        let ref_outs = reference.query_batch_outputs(&rects);
                        let want = reference.select_batch_streams(
                            &ref_outs, &wants, &mut ref_rngs[f], &excluded,
                        );
                        prop_assert_eq!(got, want, "batch selection on {:?} t{}", kind, threads);
                    }
                    _ => {
                        let want: Vec<usize> =
                            rects.iter().map(|r| index.count(&view, r).count).collect();
                        prop_assert_eq!(forks[f].count_batch(&rects), want, "count_batch");
                    }
                }
                let after = forks[f].stats();
                prop_assert_eq!(after.cache_hits - before.cache_hits, hits, "hits, op {}", op);
                prop_assert_eq!(
                    after.cache_misses - before.cache_misses,
                    rects.len() as u64 - hits,
                    "misses, op {}", op
                );
                prop_assert_eq!(
                    after.tuples_examined - before.tuples_examined,
                    examined,
                    "examined, op {}", op
                );
                prop_assert_eq!(
                    rngs[f].clone().next_u64(),
                    ref_rngs[f].clone().next_u64(),
                    "RNG state of fork {} on {:?}", f, kind
                );
            }
        }
    }
}
