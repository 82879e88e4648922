//! Property-based tests of the indexed F-measure evaluator: over views,
//! trees and targets built to sit on grid bucket edges, counting the
//! tree's leaf boxes and the target's areas gives exactly the confusion
//! matrix of the per-row reference `evaluate_model_with` — on every
//! access path and thread count, for targets whose areas overlap or touch
//! (which are counted row by row), and in sessions whether or not their
//! engine samples the evaluation view.

use std::sync::Arc;

use aide::core::{
    evaluate_model_indexed, evaluate_model_with, ExplorationSession, SessionConfig, TargetQuery,
};
use aide::data::view::{Domain, SpaceMapper};
use aide::data::NumericView;
use aide::index::{ExtractionEngine, GridIndex, IndexKind, RegionIndex, ScanIndex};
use aide::ml::{DecisionTree, TreeParams};
use aide::util::geom::Rect;
use aide::util::par::Pool;
use aide::util::rng::{Rng, Xoshiro256pp};
use aide_testkit::prop::gen;
use aide_testkit::{forall, prop_assert_eq};

/// One coordinate or bound: `(kind, value, k)`.
type Spec = (usize, f64, usize);

fn spec_gen() -> impl gen::Gen<Value = Spec> {
    (
        gen::usize_in(0..8),
        gen::f64_in(0.0..100.0),
        gen::usize_in(0..130),
    )
}

/// Resolutions whose bucket edges `k·100/r` are not all exact in floating
/// point, so that a value an ulp or two off an edge can fall in the
/// bucket on the other side of it.
const ODD_RESOLUTIONS: [usize; 4] = [5, 12, 22, 59];

/// Resolves a spec on dimension `d`: a free value, an edge `k·100/r` of
/// the heuristic grid (resolution `r`) or of the 2-bucket grid, the
/// domain ends 0 and 100, an edge of a grid in [`ODD_RESOLUTIONS`] moved
/// by up to two ulps, or a coordinate already in `prior` (the points
/// resolved so far), which makes duplicates.
fn resolve((kind, value, k): Spec, d: usize, r: usize, prior: &[Vec<f64>]) -> f64 {
    match kind {
        0 => value,
        1 => (k % (r + 1)) as f64 * 100.0 / r as f64,
        2 => (k % 3) as f64 * 50.0,
        3 => 0.0,
        4 => 100.0,
        6 | 7 => {
            let odd = ODD_RESOLUTIONS[value as usize % ODD_RESOLUTIONS.len()];
            let edge = (k % (odd + 1)) as f64 * 100.0 / odd as f64;
            // -2..=2 ulps.
            let ulps = (value.fract() * 5.0) as i32 - 2;
            let moved = (0..ulps.abs()).fold(edge, |x, _| {
                if ulps < 0 {
                    x.next_down()
                } else {
                    x.next_up()
                }
            });
            moved.clamp(0.0, 100.0)
        }
        _ if prior.is_empty() => value,
        _ => prior[k % prior.len()][d],
    }
}

fn view_of(dims: usize, points: &[Vec<f64>]) -> NumericView {
    let mapper = SpaceMapper::new(
        (0..dims).map(|d| format!("a{d}")).collect(),
        vec![Domain::new(0.0, 100.0); dims],
    );
    let data: Vec<f64> = points.iter().flatten().copied().collect();
    NumericView::new(mapper, data, (0..points.len() as u32).collect())
}

/// The view's points: `coords` resolved per dimension, then repeated
/// `copies` times, every other copy moving one coordinate so the copies
/// are not all duplicates. Also returns the heuristic grid's resolution.
fn points_of(dims: usize, coords: &[Spec], copies: usize) -> (Vec<Vec<f64>>, usize) {
    let n = coords.len() / dims;
    let r = GridIndex::build(&view_of(dims, &vec![vec![0.0; dims]; n * copies])).resolution();
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(n * copies);
    for i in 0..n {
        let p = (0..dims).map(|d| resolve(coords[i * dims + d], d, r, &points)).collect();
        points.push(p);
    }
    for c in 1..copies {
        for i in 0..n {
            let mut p = points[i].clone();
            if c % 2 == 1 {
                p[c % dims] = resolve(coords[i * dims], c % dims, r, &points[..n]);
            }
            points.push(p);
        }
    }
    (points, r)
}

/// The target's areas, resolved like the points, plus for `shape` 1 an
/// area sharing a face with the first and for `shape` 2 one overlapping
/// it. Both make a target whose areas are not disjoint.
fn target_of(
    dims: usize,
    areas: &[(bool, Vec<Spec>)],
    shape: usize,
    r: usize,
    points: &[Vec<f64>],
) -> TargetQuery {
    let mut rects: Vec<Rect> = areas
        .iter()
        .map(|(degenerate, specs)| {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for d in 0..dims {
                let a = resolve(specs[2 * d], d, r, points);
                let b = if *degenerate { a } else { resolve(specs[2 * d + 1], d, r, points) };
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            Rect::new(lo, hi)
        })
        .collect();
    let first = rects[0].clone();
    let (lo, hi) = (first.lo(0), first.hi(0));
    match shape {
        1 => rects.push(first.with_dim(0, hi, (hi + (hi - lo)).min(100.0))),
        2 => rects.push(first.with_dim(0, (lo + hi) / 2.0, hi)),
        _ => {}
    }
    TargetQuery::new(rects)
}

/// Offset that puts a training pair `c - DELTA`, `c + DELTA` around a
/// coordinate `c`, so CART's midpoint threshold lands on `c` itself: a
/// data value or a bucket edge. A power of two keeps the arithmetic exact
/// for almost every `c`.
const DELTA: f64 = 1.0 / 4096.0;

/// A tree fitted on `training` (view points moved by 0, `∓DELTA` or one
/// ulp up, so thresholds land on data values, bucket edges and an ulp
/// beside them), or, when `random` is non-zero, on 500 points seeded by
/// it with random labels: a tree with hundreds of leaves.
fn tree_of(
    dims: usize,
    points: &[Vec<f64>],
    training: &[(usize, usize, bool)],
    random: u64,
) -> Option<DecisionTree> {
    if points.is_empty() {
        return None;
    }
    let mut data = Vec::new();
    let mut labels = Vec::new();
    if random != 0 {
        let mut rng = Xoshiro256pp::seed_from_u64(random);
        for _ in 0..500 {
            let p = &points[rng.index(points.len())];
            data.extend(p.iter().map(|&c| {
                if rng.chance(0.5) {
                    rng.uniform(0.0, 100.0)
                } else {
                    c
                }
            }));
            labels.push(rng.chance(0.5));
        }
    } else {
        for &(src, shift, label) in training {
            let c = &points[src % points.len()];
            data.extend(c.iter().map(|&c| match shift {
                0 => c,
                1 => c - DELTA,
                2 => c + DELTA,
                _ => c.next_up(),
            }));
            labels.push(label);
        }
    }
    (!labels.is_empty()).then(|| DecisionTree::fit(dims, &data, &labels, &TreeParams::default()))
}

forall! {
    cases = 48;

    /// The indexed matrix equals the per-row oracle for the no-model case,
    /// a tree fitted on random labels and a random-label tree with
    /// hundreds of leaves, over grids at resolutions 1, 2, 5, 12, 22, 59
    /// and the heuristic one, a scan, and pools of 1, 2 and 4 threads;
    /// for targets with disjoint, touching and overlapping areas.
    /// Repeating the base points (`copies`) makes views long enough to
    /// span several of the evaluator's chunks.
    fn indexed_evaluation_equals_the_per_row_oracle(
        dims in gen::usize_in(1..6),
        coords in gen::vec_of(spec_gen(), 0..400),
        copies in gen::choice(vec![1usize, 1, 1, 12, 80]),
        training in gen::vec_of((gen::usize_in(0..1_000), gen::usize_in(0..4), gen::any_bool()), 0..60),
        no_model in gen::any_bool(),
        random_tree in gen::choice(vec![0u64, 0, 0, 1, 2, 3]),
        areas in gen::vec_of((gen::any_bool(), gen::vec_of(spec_gen(), 10..11)), 1..4),
        shape in gen::usize_in(0..3),
    ) {
        let (points, r) = points_of(dims, &coords, copies);
        let view = Arc::new(view_of(dims, &points));
        let tree = if no_model { None } else { tree_of(dims, &points, &training, random_tree) };
        let target = target_of(dims, &areas, shape, r, &points);

        let want = evaluate_model_with(tree.as_ref(), &view, &target, &Pool::serial());
        let grids: Vec<GridIndex> = [1, 2, 5, 12, 22, 59]
            .into_iter()
            .map(|res| GridIndex::with_resolution(&view, res))
            .chain([GridIndex::build(&view)])
            .collect();
        let paths = grids
            .iter()
            .map(|g| g as &dyn RegionIndex)
            .chain([&ScanIndex as &dyn RegionIndex]);
        for index in paths {
            for threads in [1, 2, 4] {
                let got = evaluate_model_indexed(tree.as_ref(), &view, index, &target, &Pool::new(threads));
                prop_assert_eq!(got, want, "{} at {} threads", index.name(), threads);
            }
        }
    }
}

forall! {
    cases = 12;

    /// A session reports the oracle's F-measure of its own tree, both when
    /// its engine samples the evaluation view itself (counted over the
    /// engine's grid) and when it samples another view of the same rows
    /// (counted row by row), for disjoint, touching and overlapping areas.
    fn sessions_report_the_oracles_f_on_a_view_they_do_or_do_not_sample(
        dims in gen::usize_in(1..4),
        coords in gen::vec_of(spec_gen(), 60..400),
        copies in gen::choice(vec![12usize, 80]),
        areas in gen::vec_of((gen::any_bool(), gen::vec_of(spec_gen(), 10..11)), 1..4),
        shape in gen::usize_in(0..3),
        seed in gen::any_u64(),
    ) {
        let (points, r) = points_of(dims, &coords, copies);
        let view = Arc::new(view_of(dims, &points));
        let target = target_of(dims, &areas, shape, r, &points);
        for sampled in [Arc::clone(&view), Arc::new(view.as_ref().clone())] {
            let engine = ExtractionEngine::from_arc(sampled, IndexKind::Grid);
            let mut session = ExplorationSession::new(
                SessionConfig::default(),
                engine,
                Arc::clone(&view),
                target.clone(),
                Xoshiro256pp::seed_from_u64(seed),
            );
            for _ in 0..3 {
                let reported = session.run_iteration().f_measure;
                let want = evaluate_model_with(session.tree(), &view, &target, &Pool::serial());
                prop_assert_eq!(reported.to_bits(), want.f_measure().to_bits());
            }
        }
    }
}
