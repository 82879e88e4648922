//! Property-based test of the indexed F-measure evaluator: over views,
//! trees and targets built to sit on the grid's bucket edges, counting by
//! blocks gives exactly the confusion matrix of the per-row reference
//! `evaluate_model_with` — on every access path and thread count.

use std::sync::Arc;

use aide::core::{evaluate_model_indexed, evaluate_model_with, TargetQuery};
use aide::data::view::{Domain, SpaceMapper};
use aide::data::NumericView;
use aide::index::{GridIndex, RegionIndex, ScanIndex};
use aide::ml::{DecisionTree, TreeParams};
use aide::util::geom::Rect;
use aide::util::par::Pool;
use aide_testkit::prop::gen;
use aide_testkit::{forall, prop_assert_eq};

/// One coordinate or bound: `(kind, value, k)`.
type Spec = (usize, f64, usize);

fn spec_gen() -> impl gen::Gen<Value = Spec> {
    (
        gen::usize_in(0..6),
        gen::f64_in(0.0..100.0),
        gen::usize_in(0..130),
    )
}

/// Resolves a spec on dimension `d`: a free value, an edge `k·100/r` of
/// the heuristic grid (resolution `r`) or of the 2-bucket grid, the
/// domain ends 0 and 100, or a coordinate already in `prior` (the points
/// resolved so far), which makes duplicates.
fn resolve((kind, value, k): Spec, d: usize, r: usize, prior: &[Vec<f64>]) -> f64 {
    match kind {
        0 => value,
        1 => (k % (r + 1)) as f64 * 100.0 / r as f64,
        2 => (k % 3) as f64 * 50.0,
        3 => 0.0,
        4 => 100.0,
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

/// Offset that puts a training pair `c - DELTA`, `c + DELTA` around a
/// coordinate `c`, so CART's midpoint threshold lands on `c` itself: a
/// data value or a bucket edge. A power of two keeps the arithmetic exact
/// for almost every `c`.
const DELTA: f64 = 1.0 / 4096.0;

forall! {
    cases = 48;

    /// The indexed matrix equals the per-row oracle for the no-model case
    /// and a tree fitted on random labels, over grids at resolutions 1, 2
    /// and the heuristic one, a scan, and pools of 1, 2 and 4 threads.
    /// Repeating the base points (`copies`) makes views long enough that
    /// the evaluator's chunks cut through cells.
    fn indexed_evaluation_equals_the_per_row_oracle(
        dims in gen::usize_in(1..6),
        coords in gen::vec_of(spec_gen(), 0..400),
        copies in gen::choice(vec![1usize, 1, 1, 12, 80]),
        training in gen::vec_of((gen::usize_in(0..1_000), gen::usize_in(0..3), gen::any_bool()), 0..60),
        no_model in gen::any_bool(),
        areas in gen::vec_of((gen::any_bool(), gen::vec_of(spec_gen(), 10..11)), 1..4),
    ) {
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
                // Every other copy moves one coordinate so the copies are
                // not all duplicates.
                if c % 2 == 1 {
                    p[c % dims] = resolve(coords[i * dims], c % dims, r, &points[..n]);
                }
                points.push(p);
            }
        }
        let view = Arc::new(view_of(dims, &points));

        let tree = if no_model || training.is_empty() || points.is_empty() {
            None
        } else {
            let mut data = Vec::new();
            let mut labels = Vec::new();
            for &(src, shift, label) in &training {
                let offset = [0.0, -DELTA, DELTA][shift];
                data.extend(points[src % points.len()].iter().map(|&c| c + offset));
                labels.push(label);
            }
            Some(DecisionTree::fit(dims, &data, &labels, &TreeParams::default()))
        };

        let rects: Vec<Rect> = areas
            .iter()
            .map(|(degenerate, specs)| {
                let mut lo = Vec::with_capacity(dims);
                let mut hi = Vec::with_capacity(dims);
                for d in 0..dims {
                    let a = resolve(specs[2 * d], d, r, &points);
                    let b = if *degenerate { a } else { resolve(specs[2 * d + 1], d, r, &points) };
                    lo.push(a.min(b));
                    hi.push(a.max(b));
                }
                Rect::new(lo, hi)
            })
            .collect();
        let target = TargetQuery::new(rects);

        let want = evaluate_model_with(tree.as_ref(), &view, &target, &Pool::serial());
        let grids = [
            GridIndex::with_resolution(&view, 1),
            GridIndex::with_resolution(&view, 2),
            GridIndex::build(&view),
        ];
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
