//! Property-based tests: every access path answers rectangle queries
//! identically to a brute-force scan, and sampling honors its contract —
//! running on the hermetic `aide-testkit` harness.
//!
//! Selection with [`Exclusions`] is checked against the path it replaced,
//! kept here as a reference only: filter the result through a row-id
//! `HashSet`, then draw from the filtered copy.

use std::collections::HashSet;
use std::sync::Arc;

use aide_data::store::{load_view_from, write_view_to};
use aide_data::view::{Domain, SpaceMapper};
use aide_data::NumericView;
use aide_index::{
    Exclusions, ExtractionEngine, GridIndex, IndexKind, QueryOutput, RegionIndex, Sample,
    ScanIndex, SharedRegionCache,
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

/// One rectangle bound: `(kind, value, k)` is a free value, the `k`-th
/// grid cell edge, the domain edge 100 or 0, or the `k`-th cell edge
/// moved down or up by one or two ulps — so generated rectangles touch
/// cell edges and the domain's upper bound, are often degenerate, and at
/// resolutions that are not powers of two cut a cell whose float bounds
/// say it is inside.
fn bound_gen() -> impl gen::Gen<Value = (usize, f64, usize)> {
    (
        gen::usize_in(0..6),
        gen::f64_in(0.0..100.0),
        gen::usize_in(0..65),
    )
}

fn bound_at((kind, value, k): (usize, f64, usize), resolution: usize) -> f64 {
    let w = 100.0 / resolution as f64;
    match kind {
        0 => value,
        1 => (k % (resolution + 1)) as f64 * w,
        2 => 100.0,
        3 => 0.0,
        kind => beside_edge(k, resolution, kind == 5, 1 + value as usize % 2),
    }
}

/// The `k`-th cell edge `k·100/r` of a grid at `resolution`, moved up
/// (`up`) or down by `ulps` ulps and kept in `[0, 100]`.
fn beside_edge(k: usize, resolution: usize, up: bool, ulps: usize) -> f64 {
    let edge = (k % (resolution + 1)) as f64 * (100.0 / resolution as f64);
    let moved = (0..ulps).fold(edge, |x, _| if up { x.next_up() } else { x.next_down() });
    moved.clamp(0.0, 100.0)
}

/// A 2-d rectangle from four bounds (x pair, y pair).
fn rect_at(bounds: &[(usize, f64, usize)], resolution: usize) -> Rect {
    let v: Vec<f64> = bounds.iter().map(|&b| bound_at(b, resolution)).collect();
    Rect::new(
        vec![v[0].min(v[1]), v[2].min(v[3])],
        vec![v[0].max(v[1]), v[2].max(v[3])],
    )
}

/// Whether view index `i` sits in a grid cell (at `resolution`) that
/// `rect` only partly covers, i.e. one whose rows are point-tested.
fn in_partial_cell(view: &NumericView, i: usize, rect: &Rect, resolution: usize) -> bool {
    let w = 100.0 / resolution as f64;
    (0..view.dims()).any(|d| {
        let b = ((view.coord(i, d) / 100.0 * resolution as f64) as usize).min(resolution - 1);
        !(b as f64 * w >= rect.lo(d) && (b + 1) as f64 * w <= rect.hi(d))
    })
}

/// The reference selection: the result filtered through a row-id set,
/// then `sample_indices` over the filtered copy.
fn hashset_select(
    view: &NumericView,
    out: &QueryOutput,
    n: usize,
    rng: &mut Xoshiro256pp,
    excluded: &HashSet<u32>,
) -> Vec<Sample> {
    if n == 0 {
        return Vec::new();
    }
    let candidates: Vec<u32> = out
        .to_vec()
        .iter()
        .copied()
        .filter(|&i| !excluded.contains(&view.row_id(i as usize)))
        .collect();
    let chosen: Vec<u32> = if candidates.len() <= n {
        candidates
    } else {
        rng.sample_indices(candidates.len(), n)
            .into_iter()
            .map(|i| candidates[i])
            .collect()
    };
    chosen
        .into_iter()
        .map(|i| Sample {
            view_index: i,
            row_id: view.row_id(i as usize),
            point: view.point_vec(i as usize),
        })
        .collect()
}

/// The reference candidate count: the result filtered through a row-id set.
fn hashset_count(view: &NumericView, out: &QueryOutput, excluded: &HashSet<u32>) -> usize {
    out.to_vec()
        .iter()
        .filter(|&&i| !excluded.contains(&view.row_id(i as usize)))
        .count()
}

/// Cheap deterministic per-row coin for subset picks.
fn coin(seed: u64, i: u32, one_in: u64) -> bool {
    (seed ^ u64::from(i))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        .is_multiple_of(one_in)
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
            let mut got = path.query(&view, &rect).to_vec();
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
        let excluded = Exclusions::none();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            // Reference: the access path itself, one query per rect, no cache.
            let view = view_from(&points);
            let index = direct_index(&view, kind);
            let outputs: Vec<Arc<QueryOutput>> =
                rects.iter().map(|r| Arc::new(index.query(&view, r))).collect();
            let expected_counts: Vec<usize> =
                rects.iter().map(|r| index.count(&view, r).count).collect();
            let mut selector = ExtractionEngine::new(view, kind);
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
        let excluded = Exclusions::none();
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
        let excluded = engine.exclusions(first.iter().map(|s| s.view_index));
        let rows: HashSet<u32> = first.iter().map(|s| s.row_id).collect();
        let second = engine.sample_in_excluding(&rect, 1_000, &mut rng, &excluded);
        prop_assert_eq!(second.len() + first.len(), engine.count_in(&rect));
        for s in &second {
            prop_assert!(!rows.contains(&s.row_id));
        }
    }

    /// The columnar containment kernel is the row-major filter, bit for
    /// bit: for arbitrary dimensionality, data, rectangle and thread
    /// count, `scan_rect_into`/`count_rect`/the order-
    /// preserving candidate mask — and every engine access path built
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

        // The candidate mask preserves an arbitrary candidate order: its
        // set bits are the kept candidates.
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        let mut mask = Vec::new();
        view.mask_indices_into(&rect, &reversed, &mut mask);
        prop_assert_eq!(mask.len(), n.div_ceil(64), "one word per 64 candidates");
        let filtered: Vec<u32> = reversed
            .iter()
            .enumerate()
            .filter(|&(j, _)| mask[j / 64] >> (j % 64) & 1 == 1)
            .map(|(_, &i)| i)
            .collect();
        let mut expected_rev = expected.clone();
        expected_rev.reverse();
        prop_assert_eq!(&filtered, &expected_rev, "candidate order");
        let set: usize = mask.iter().map(|w| w.count_ones() as usize).sum();
        prop_assert_eq!(set, expected.len(), "no bit past the candidates");
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
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let view = Arc::new(view_from(&points));
            let index = direct_index(&view, kind);
            let mut template = ExtractionEngine::from_arc(Arc::clone(&view), kind);
            template.set_pool(Pool::new(threads));
            // Keyed once; valid on every fork, which shares the index.
            let excluded = template.exclusions((0..points.len() as u32).filter(|i| i % 5 == 0));
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
                        index.query(&view, &rects[0]).to_vec(),
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

    /// Selection with [`Exclusions`] is the `HashSet` filter it replaced,
    /// bit for bit: for Grid and Scan, rectangles that are degenerate or
    /// touch cell edges and 100.0, exclusion sets that are empty, lie
    /// outside the result, sit in partly covered cells, cover the whole
    /// result or all of it but one row, or are a random subset of the
    /// view, and `n` of 0, 1, len − 1, len and more than len, at 1 and 4
    /// threads: the engine's results equal the bare index's,
    /// `count_candidates` and `has_candidates` equal the reference's, and
    /// both `sample_in_excluding` and `select_batch_streams` return the
    /// reference's samples and leave the RNG in the same state.
    fn exclusion_selection_matches_the_hashset_reference(
        points in points_gen(),
        bounds in gen::vec_of(bound_gen(), 4..13),
        mode in gen::usize_in(0..6),
        pick in gen::any_u64(),
        n_kind in gen::usize_in(0..6),
        seed in gen::any_u64(),
    ) {
        let view = view_from(&points);
        let resolution = GridIndex::build(&view).resolution();
        let rects: Vec<Rect> = bounds.chunks_exact(4).map(|b| rect_at(b, resolution)).collect();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let index = direct_index(&view, kind);
            let outputs: Vec<QueryOutput> = rects.iter().map(|r| index.query(&view, r)).collect();
            let first = &outputs[0];
            let in_first: HashSet<u32> = first.to_vec().iter().copied().collect();
            let all = 0..points.len() as u32;
            let labeled: Vec<u32> = match mode {
                0 => Vec::new(),
                1 => all.filter(|i| !in_first.contains(i) && coin(pick, *i, 2)).collect(),
                2 => first
                    .to_vec()
                    .iter()
                    .copied()
                    .filter(|&i| in_partial_cell(&view, i as usize, &rects[0], resolution))
                    .filter(|&i| coin(pick, i, 2))
                    .collect(),
                3 => first.to_vec().clone(),
                4 => first.to_vec().iter().skip(1).copied().collect(),
                _ => all.filter(|&i| coin(pick, i, 3)).collect(),
            };
            let rows: HashSet<u32> = labeled.iter().map(|&i| view.row_id(i as usize)).collect();
            let len = hashset_count(&view, first, &rows);
            let n = [0, 1, len.saturating_sub(1), len, len + 1, len + 7][n_kind];
            let wants: Vec<usize> = (0..rects.len()).map(|j| (n + 3 * j) % (len + 9)).collect();
            for threads in [1, 4] {
                let mut engine = ExtractionEngine::new(view_from(&points), kind);
                engine.set_pool(Pool::new(threads));
                let excluded = engine.exclusions(labeled.iter().copied());
                let outs = engine.query_batch_outputs(&rects);
                for (out, reference) in outs.iter().zip(&outputs) {
                    prop_assert_eq!(&**out, reference, "engine result on {:?}", kind);
                    let want = hashset_count(&view, reference, &rows);
                    prop_assert_eq!(
                        engine.count_candidates(out, &excluded),
                        want,
                        "count_candidates on {:?}", kind
                    );
                    prop_assert_eq!(
                        engine.has_candidates(out, &excluded),
                        want > 0,
                        "has_candidates on {:?}", kind
                    );
                }

                let mut rng = Xoshiro256pp::seed_from_u64(seed);
                let mut ref_rng = rng.clone();
                let got = engine.sample_in_excluding(&rects[0], n, &mut rng, &excluded);
                let want = hashset_select(&view, first, n, &mut ref_rng, &rows);
                prop_assert_eq!(&got, &want, "sample_in_excluding on {:?} n {}", kind, n);
                prop_assert_eq!(rng.clone().next_u64(), ref_rng.clone().next_u64());

                let got = engine.select_batch_streams(&outs, &wants, &mut rng, &excluded);
                let active: Vec<usize> = (0..wants.len()).filter(|&j| wants[j] > 0).collect();
                let mut streams = ref_rng.split_streams(active.len());
                let mut want: Vec<Vec<Sample>> = vec![Vec::new(); wants.len()];
                for (k, &j) in active.iter().enumerate() {
                    want[j] = hashset_select(&view, &outputs[j], wants[j], &mut streams[k], &rows);
                }
                prop_assert_eq!(&got, &want, "select_batch_streams on {:?} t{}", kind, threads);
                prop_assert_eq!(rng.next_u64(), ref_rng.next_u64(), "RNG after the batch");
            }
        }
    }

    /// Any view the `aide-view/1` loader accepts is one the grid answers
    /// exactly like the scan. Lane values are drawn in `[0, 100]` with the
    /// bounds themselves frequent; in some cases one value is replaced by
    /// an out-of-domain or non-finite one, and the loader must then
    /// refuse the file (the grid's full-cell shortcut would otherwise
    /// return rows the scan rejects).
    fn grid_matches_scan_on_every_view_the_loader_accepts(
        values in gen::vec_of((gen::usize_in(0..4), gen::f64_in(0.0..100.0)), 0..400),
        corrupt in gen::usize_in(0..8),
        at in gen::usize_in(0..400),
        corners in rect_corners(),
        threads in gen::usize_in(1..5),
    ) {
        let n = values.len() / 2;
        let mut data: Vec<f64> = values[..2 * n]
            .iter()
            .map(|&(kind, v)| match kind {
                0 => 0.0,
                1 => 100.0,
                _ => v,
            })
            .collect();
        let bad = [-5.0, 150.0, 100.000_000_001, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let corrupted = n > 0 && corrupt < bad.len();
        if corrupted {
            data[at % (2 * n)] = bad[corrupt];
        }
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let mut file = Vec::new();
        write_view_to(&NumericView::new(mapper, data, (0..n as u32).collect()), &mut file)
            .expect("in-memory write");
        let loaded = load_view_from(&mut &file[..]);
        prop_assert_eq!(loaded.is_err(), corrupted, "loader verdict");
        let Ok(view) = loaded else {
            return Ok(());
        };
        let grid = GridIndex::build_with(&view, &Pool::new(threads));
        for rect in [rect_from(&corners), Rect::full_domain(2)] {
            let mut from_grid = grid.query(&view, &rect).to_vec();
            from_grid.sort_unstable();
            prop_assert_eq!(&from_grid, &ScanIndex::new().query(&view, &rect).to_vec());
            prop_assert_eq!(grid.count(&view, &rect).count, from_grid.len());
        }
    }

    /// A query output is the cell-major filter it replaced: for the grid
    /// and the scan, on points spread over the domain or packed into one
    /// corner (so one grid cell holds hundreds of rows and its mask spans
    /// many words) plus points an ulp or two beside cell edges, on
    /// rectangles whose bounds sit on cell edges or an ulp or two beside
    /// them, on the domain's edges, outside the domain or anywhere,
    /// degenerate ones
    /// and the full domain among them, `to_vec()` and `get(p)` equal every
    /// matching view index sorted by (run key, view index), and excluding
    /// a random subset of the view leaves exactly the reference's
    /// candidates, in its order.
    fn outputs_equal_the_cell_major_filter(
        raw in gen::vec_of((gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)), 0..600),
        packed in gen::any_bool(),
        snapped in gen::vec_of((gen::usize_in(0..65), gen::usize_in(0..65), gen::usize_in(0..5)), 0..40),
        bounds in gen::vec_of(
            (gen::usize_in(0..8), gen::f64_in(0.0..100.0), gen::usize_in(0..65)),
            4..5,
        ),
        pick in gen::any_u64(),
    ) {
        let scale = if packed { 0.03 } else { 1.0 };
        let len = raw.len() + snapped.len();
        let resolution = GridIndex::build(&view_from(&vec![(0.0, 0.0); len])).resolution();
        // Points on cell edges moved by -2..=2 ulps, on both dimensions.
        let step = |k, s: usize| beside_edge(k, resolution, s >= 2, s.abs_diff(2));
        let points: Vec<(f64, f64)> = raw
            .iter()
            .map(|&(x, y)| (x * scale, y * scale))
            .chain(snapped.iter().map(|&(i, j, s)| (step(i, s), step(j, s))))
            .collect();
        let view = view_from(&points);
        let w = 100.0 / resolution as f64;
        let v: Vec<f64> = bounds
            .iter()
            .map(|&(kind, value, k)| match kind {
                0 => value * scale,
                1 => (k % (resolution + 1)) as f64 * w,
                2 => 100.0,
                3 => 0.0,
                4 => -value,
                5 => 100.0 + value,
                kind => beside_edge(k, resolution, kind == 7, 1 + value as usize % 2),
            })
            .collect();
        let rects = [
            Rect::new(
                vec![v[0].min(v[1]), v[2].min(v[3])],
                vec![v[0].max(v[1]), v[2].max(v[3])],
            ),
            Rect::new(vec![v[0], v[2]], vec![v[0], v[2]]),
            Rect::full_domain(2),
        ];
        let labeled: Vec<u32> = (0..points.len() as u32).filter(|&i| coin(pick, i, 3)).collect();
        for kind in [IndexKind::Grid, IndexKind::Scan] {
            let mut engine = ExtractionEngine::new(view.clone(), kind);
            let excluded = engine.exclusions(labeled.iter().copied());
            for rect in &rects {
                let mut want: Vec<(u32, u32)> = view
                    .indices_in(rect)
                    .into_iter()
                    .map(|i| (engine.index().run_key(&view, i as u32), i as u32))
                    .collect();
                want.sort_unstable();
                let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
                let out = engine.index().query(&view, rect);
                prop_assert_eq!(out.len(), want.len());
                prop_assert_eq!(&out.to_vec(), &want, "to_vec on {:?}", kind);
                for (p, &i) in want.iter().enumerate() {
                    prop_assert_eq!(out.get(p), i, "get({}) on {:?}", p, kind);
                }

                let kept: Vec<u32> = want.iter().copied().filter(|i| !labeled.contains(i)).collect();
                prop_assert_eq!(engine.count_candidates(&out, &excluded), kept.len());
                let mut rng = Xoshiro256pp::seed_from_u64(pick);
                let all = engine.sample_in_excluding(rect, kept.len() + 1, &mut rng, &excluded);
                let got: Vec<u32> = all.iter().map(|s| s.view_index).collect();
                prop_assert_eq!(&got, &kept, "candidates on {:?}", kind);
            }
        }
    }
}
