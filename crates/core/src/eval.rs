//! Accuracy evaluation.
//!
//! The paper measures effectiveness as the F-measure of the final decision
//! tree over the *total data space* T (§2.3, Eq. 1): every tuple of the
//! database is classified by the model and compared against the target
//! query's ground truth.
//!
//! [`evaluate_model_with`] does exactly that, row by row, and stays as the
//! reference. Sessions use [`evaluate_model_indexed`], which gets the same
//! matrix from rectangle counts: Eq. 1 needs four integers, the tree's
//! relevant leaves and the target's areas are disjoint boxes, and an
//! access path counts a box without testing the rows of the cells inside
//! it.

use std::sync::Arc;
use std::time::Instant;

use aide_data::NumericView;
use aide_index::{ExtractionEngine, RegionIndex};
use aide_ml::{ConfusionMatrix, DecisionTree};
use aide_util::geom::Rect;
use aide_util::par::Pool;
use aide_util::trace::{Tracer, Value};

use crate::target::TargetQuery;

/// View rows per parallel work chunk. Fixed (never derived from the
/// thread count) so the decomposition — and thus the merged matrix — is
/// identical on any machine; confusion counts are integers, so the merge
/// is exact.
const EVAL_CHUNK: usize = 4_096;

/// Classifies every point of `view` with `model` (no model = everything
/// irrelevant) against the `target` ground truth, row by row, over an
/// explicit worker pool. The result is bit-identical for any thread count.
pub fn evaluate_model_with(
    model: Option<&DecisionTree>,
    view: &NumericView,
    target: &TargetQuery,
    pool: &Pool,
) -> ConfusionMatrix {
    pool.par_map_reduce(
        view.len(),
        EVAL_CHUNK,
        |range| {
            let mut m = ConfusionMatrix::default();
            // One row buffer per chunk: the view stores column lanes, so a
            // contiguous point is gathered rather than borrowed.
            let mut p = vec![0.0; view.dims()];
            match model {
                None => {
                    for i in range {
                        view.fill_point(i, &mut p);
                        m.record(false, target.contains(&p));
                    }
                }
                Some(tree) => {
                    for i in range {
                        view.fill_point(i, &mut p);
                        m.record(tree.predict(&p), target.contains(&p));
                    }
                }
            }
            m
        },
        ConfusionMatrix::default(),
        |mut acc, part| {
            acc.merge(&part);
            acc
        },
    )
}

/// The matrix of [`evaluate_model_with`], from rectangle counts over
/// `index`, which must have been built over `view`.
///
/// The relevant leaves `L` of the tree ([`DecisionTree::leaf_boxes`])
/// are disjoint boxes. When the target's areas `A` are pairwise disjoint
/// too (closed areas that touch share a point, so they are not), then
///
/// * `TP + FP = Σ_L count(L)`;
/// * `TP = Σ_L Σ_A count(L ∩ A)`;
/// * `|T| = Σ_A count(A)`;
/// * `FN = |T| − TP` and `TN = n − TP − FP − FN`.
///
/// Each count is `index`'s own [`RegionIndex::count`], so no engine
/// statistic, cache entry or trace event moves. The boxes reproduce the
/// split rule bit for bit and the counts are integers, so the result is
/// identical to [`evaluate_model_with`] for any index and any thread
/// count. Areas that share a point would count its rows twice; such a
/// target is evaluated row by row.
pub fn evaluate_model_indexed(
    model: Option<&DecisionTree>,
    view: &NumericView,
    index: &dyn RegionIndex,
    target: &TargetQuery,
    pool: &Pool,
) -> ConfusionMatrix {
    let areas = target.areas();
    let disjoint = areas
        .iter()
        .enumerate()
        .all(|(i, a)| areas[i + 1..].iter().all(|b| !a.intersects(b)));
    if !disjoint {
        return evaluate_model_with(model, view, target, pool);
    }
    // Every finite coordinate, so each row lies in some leaf's box.
    let dims = view.dims();
    let everything = Rect::new(vec![f64::MIN; dims], vec![f64::MAX; dims]);
    let leaves = model.map_or_else(Vec::new, |tree| tree.leaf_boxes(true, &everything));
    // Each box adds its count to one lane: predicted, both, actual.
    let mut boxes: Vec<(Rect, usize)> = Vec::new();
    for leaf in &leaves {
        boxes.extend(areas.iter().filter_map(|a| Some((leaf.intersection(a)?, 1))));
    }
    boxes.extend(leaves.into_iter().map(|leaf| (leaf, 0)));
    boxes.extend(areas.iter().map(|a| (a.clone(), 2)));
    // The boxes are spread over the per-row loop's chunks of the view,
    // chunk `c` of `C` taking boxes `c·B/C..(c + 1)·B/C`, so the pool's
    // chunk counters (the trace's `pool` event) read the same on either
    // path.
    let chunks = view.len().div_ceil(EVAL_CHUNK);
    let [predicted, tp, actual] = pool.par_map_reduce(
        view.len(),
        EVAL_CHUNK,
        |rows| {
            let c = rows.start / EVAL_CHUNK;
            let mut lanes = [0u64; 3];
            for (rect, lane) in &boxes[c * boxes.len() / chunks..(c + 1) * boxes.len() / chunks] {
                lanes[*lane] += index.count(view, rect).count as u64;
            }
            lanes
        },
        [0u64; 3],
        |acc, part| std::array::from_fn(|k| acc[k] + part[k]),
    );
    let (fp, fn_) = (predicted - tp, actual - tp);
    ConfusionMatrix {
        tp,
        fp,
        fn_,
        tn: view.len() as u64 - tp - fp - fn_,
    }
}

/// The matrix a session reports for `model` over `eval_view`: counted by
/// [`evaluate_model_indexed`] over the engine's index when the engine
/// samples that very view (every server, CLI and full-data session) and
/// its index counts a box cheaply ([`RegionIndex::counts_cheaply`]: a
/// grid of at least 8 buckets per dimension). Else row by row: a session
/// sampling a replica has an index over other rows, a scan reads every
/// row per box, and a coarse grid walks about a cell per row per box.
pub(crate) fn evaluate_session(
    model: Option<&DecisionTree>,
    eval_view: &Arc<NumericView>,
    engine: &ExtractionEngine,
    target: &TargetQuery,
    pool: &Pool,
) -> ConfusionMatrix {
    if Arc::ptr_eq(&engine.view_arc(), eval_view) && engine.index().counts_cheaply() {
        evaluate_model_indexed(model, eval_view, engine.index(), target, pool)
    } else {
        evaluate_model_with(model, eval_view, target, pool)
    }
}

/// [`evaluate_session`] plus an `eval` trace event: the full-view
/// F-measure snapshot (F, precision, recall) together with the model's
/// size (leaves, depth — 0/0 for the no-model case) and the evaluation
/// wall-clock time. The returned matrix is identical to the untraced
/// call; a disabled tracer adds one branch.
pub(crate) fn evaluate_model_traced(
    model: Option<&DecisionTree>,
    eval_view: &Arc<NumericView>,
    engine: &ExtractionEngine,
    target: &TargetQuery,
    pool: &Pool,
    tracer: &Tracer,
) -> ConfusionMatrix {
    let start = Instant::now();
    let matrix = evaluate_session(model, eval_view, engine, target, pool);
    if tracer.is_enabled() {
        let (leaves, depth) = model.map_or((0, 0), |t| (t.num_leaves(), t.depth()));
        tracer.emit_scoped(
            "eval",
            vec![
                ("points", Value::from(matrix.total())),
                ("f", Value::from(matrix.f_measure())),
                ("precision", Value::from(matrix.precision())),
                ("recall", Value::from(matrix.recall())),
                ("tree_leaves", Value::from(leaves)),
                ("tree_depth", Value::from(depth)),
                ("dur_us", Value::from(start.elapsed().as_micros() as u64)),
            ],
        );
    }
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_index::{GridIndex, IndexKind, ScanIndex};
    use aide_ml::TreeParams;
    use aide_util::geom::Rect;
    use aide_util::rng::{Rng, Xoshiro256pp};

    fn view(n: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let data: Vec<f64> = (0..n * 2).map(|_| rng.uniform(0.0, 100.0)).collect();
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    #[test]
    fn no_model_scores_zero_recall() {
        let v = view(1_000, 1);
        let target = TargetQuery::new(vec![Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])]);
        let m = evaluate_model_with(None, &v, &target, &Pool::from_env(0));
        assert_eq!(m.tp, 0);
        assert_eq!(m.f_measure(), 0.0);
        assert_eq!(m.total(), 1_000);
    }

    #[test]
    fn perfect_model_scores_one() {
        let v = view(2_000, 2);
        let target = TargetQuery::new(vec![Rect::new(vec![30.0, 30.0], vec![60.0, 60.0])]);
        // Train on the ground truth itself.
        let labels: Vec<bool> = (0..v.len())
            .map(|i| target.contains(&v.point_vec(i)))
            .collect();
        let data: Vec<f64> = (0..v.len()).flat_map(|i| v.point_vec(i)).collect();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let m = evaluate_model_with(Some(&tree), &v, &target, &Pool::from_env(0));
        assert!(m.f_measure() > 0.999, "F = {}", m.f_measure());
    }

    #[test]
    fn indexed_evaluation_equals_the_per_row_oracle() {
        let v = view(20_000, 4);
        let target = TargetQuery::new(vec![
            Rect::new(vec![20.0, 20.0], vec![45.0, 37.5]),
            Rect::new(vec![60.0, 10.0], vec![75.0, 30.0]),
        ]);
        let labels: Vec<bool> = (0..1_500)
            .map(|i| target.contains(&v.point_vec(i)))
            .collect();
        let data: Vec<f64> = (0..1_500).flat_map(|i| v.point_vec(i)).collect();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let grids = [1, 2, 8, 64].map(|r| GridIndex::with_resolution(&v, r));
        let indexes: Vec<&dyn RegionIndex> = grids
            .iter()
            .map(|g| g as &dyn RegionIndex)
            .chain([&ScanIndex as &dyn RegionIndex])
            .collect();
        for model in [None, Some(&tree)] {
            let want = evaluate_model_with(model, &v, &target, &Pool::serial());
            for &index in &indexes {
                for threads in [1, 3] {
                    let got =
                        evaluate_model_indexed(model, &v, index, &target, &Pool::new(threads));
                    assert_eq!(got, want, "{} at {threads} threads", index.name());
                }
            }
        }
    }

    #[test]
    fn sessions_match_the_oracle_on_replicas_scans_and_areas_that_share_points() {
        let v = Arc::new(view(8_000, 6));
        let replica = Arc::new(view(8_000, 6));
        let square = |lo: f64, hi: f64| Rect::new(vec![lo, lo], vec![hi, hi]);
        let labels: Vec<bool> = (0..1_000).map(|i| v.point_vec(i)[0] < 40.0).collect();
        let data: Vec<f64> = (0..1_000).flat_map(|i| v.point_vec(i)).collect();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        for areas in [
            vec![square(10.0, 30.0), square(50.0, 70.0)],
            vec![square(10.0, 30.0), square(20.0, 40.0)],
            vec![square(10.0, 30.0), square(30.0, 50.0)],
        ] {
            let target = TargetQuery::new(areas);
            for kind in [IndexKind::Grid, IndexKind::Scan] {
                let engine = ExtractionEngine::from_arc(Arc::clone(&v), kind);
                assert_eq!(engine.index().counts_cheaply(), kind == IndexKind::Grid);
                for eval_view in [&v, &replica] {
                    let want =
                        evaluate_model_with(Some(&tree), eval_view, &target, &Pool::serial());
                    let got =
                        evaluate_session(Some(&tree), eval_view, &engine, &target, &Pool::new(2));
                    assert_eq!(got, want, "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_evaluation_matches_serial_exactly() {
        let v = view(10_000, 3);
        let target = TargetQuery::new(vec![Rect::new(vec![20.0, 20.0], vec![70.0, 55.0])]);
        let labels: Vec<bool> = (0..2_000)
            .map(|i| target.contains(&v.point_vec(i)))
            .collect();
        let data: Vec<f64> = (0..2_000).flat_map(|i| v.point_vec(i)).collect();
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        for model in [None, Some(&tree)] {
            let serial = evaluate_model_with(model, &v, &target, &Pool::serial());
            for threads in [2, 4, 7] {
                let par = evaluate_model_with(model, &v, &target, &Pool::new(threads));
                assert_eq!(serial, par, "{threads} threads");
            }
        }
    }
}
