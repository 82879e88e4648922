//! Accuracy evaluation.
//!
//! The paper measures effectiveness as the F-measure of the final decision
//! tree over the *total data space* T (§2.3, Eq. 1): every tuple of the
//! database is classified by the model and compared against the target
//! query's ground truth.
//!
//! [`evaluate_model_with`] does exactly that, row by row, and stays as the
//! reference. Sessions use [`evaluate_model_indexed`], which gets the same
//! matrix from an access path's blocks: a grid cell that no tree split
//! and no target edge cuts adds its row count to one of the four counts
//! without reading a row, so only the rows of cut cells are tested.

use std::sync::Arc;
use std::time::Instant;

use aide_data::NumericView;
use aide_index::{ExtractionEngine, RegionIndex, ScanIndex};
use aide_ml::{ConfusionMatrix, DecisionTree};
use aide_util::par::Pool;
use aide_util::trace::{Tracer, Value};

use crate::target::TargetQuery;

/// Points per parallel work chunk (view rows for the per-row evaluator,
/// block-order positions for the indexed one). Fixed (never derived from
/// the thread count) so the decomposition — and thus the merged matrix —
/// is identical on any machine; confusion counts are integers, so the
/// merge is exact.
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

/// The matrix of [`evaluate_model_with`], counted block by block over
/// `index`, which must have been built over `view`.
///
/// A block whose rows all get one prediction
/// ([`DecisionTree::block_label`]) and one truth value
/// ([`TargetQuery::block_contains`]) adds its length to one count; only
/// the rows of the other blocks are gathered and tested, and of those
/// only the unknown half (prediction or truth) is computed per row. On a
/// [`GridIndex`](aide_index::GridIndex) the cost is one tree walk per
/// non-empty cell plus the rows of the cells a split or a target edge
/// cuts; on a [`ScanIndex`] every comparison is unknown and this is the
/// per-row loop. The counts are integers, so the result is identical to
/// [`evaluate_model_with`] for any index and any thread count.
pub fn evaluate_model_indexed(
    model: Option<&DecisionTree>,
    view: &NumericView,
    index: &dyn RegionIndex,
    target: &TargetQuery,
    pool: &Pool,
) -> ConfusionMatrix {
    pool.par_map_reduce(
        view.len(),
        EVAL_CHUNK,
        |span| {
            let mut m = ConfusionMatrix::default();
            let mut p = vec![0.0; view.dims()];
            index.for_each_block(view, span, &mut |block| {
                let compare = |d, t| block.compare(d, t);
                let predicted = model.map_or(Some(false), |tree| tree.block_label(compare));
                let actual = target.block_contains(compare);
                if let (Some(predicted), Some(actual)) = (predicted, actual) {
                    m.record_n(predicted, actual, block.len() as u64);
                    return;
                }
                block.for_each_row(|i| {
                    view.fill_point(i, &mut p);
                    m.record(
                        predicted.unwrap_or_else(|| model.is_some_and(|tree| tree.predict(&p))),
                        actual.unwrap_or_else(|| target.contains(&p)),
                    );
                });
            });
            m
        },
        ConfusionMatrix::default(),
        |mut acc, part| {
            acc.merge(&part);
            acc
        },
    )
}

/// Fewest rows per block at which counting by blocks pays. Each block
/// costs a tree walk and a target test, about what a few rows cost, so
/// a grid with fewer rows per non-empty cell is slower than the per-row
/// loop. Measured on 200k-row views (1-thread pool): 5-D uniform at
/// 1.5 rows per cell took 1.6–1.7× the per-row time, 3-D uniform at
/// 2.2 took 0.7–0.9×, and the SDSS-like 3- to 5-D views at 4–5 took
/// 0.5–1.0×; 2-D at 49 took 0.05–0.5×.
const MIN_ROWS_PER_BLOCK: usize = 3;

/// The access path an evaluation over `eval_view` counts by: the
/// engine's own index when the engine samples that very view (every
/// server, CLI and full-data session) and its blocks hold at least
/// [`MIN_ROWS_PER_BLOCK`] rows on average, else a [`ScanIndex`] (a
/// session sampling a replica, whose index covers other rows, or a grid
/// too sparse to pay).
pub(crate) fn eval_index<'a>(
    engine: &'a ExtractionEngine,
    eval_view: &Arc<NumericView>,
) -> &'a dyn RegionIndex {
    let index = engine.index();
    if Arc::ptr_eq(&engine.view_arc(), eval_view)
        && index.block_count(eval_view) * MIN_ROWS_PER_BLOCK <= eval_view.len()
    {
        index
    } else {
        &ScanIndex
    }
}

/// [`evaluate_model_indexed`] plus an `eval` trace event: the full-view
/// F-measure snapshot (F, precision, recall) together with the model's
/// size (leaves, depth — 0/0 for the no-model case) and the evaluation
/// wall-clock time. The returned matrix is identical to the untraced
/// call; a disabled tracer adds one branch.
pub fn evaluate_model_traced(
    model: Option<&DecisionTree>,
    view: &NumericView,
    index: &dyn RegionIndex,
    target: &TargetQuery,
    pool: &Pool,
    tracer: &Tracer,
) -> ConfusionMatrix {
    let start = Instant::now();
    let matrix = evaluate_model_indexed(model, view, index, target, pool);
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
    use aide_index::{GridIndex, IndexKind};
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
    fn sessions_count_by_the_grid_only_when_its_cells_are_dense_enough() {
        let uniform = |n: usize, dims: usize| {
            let mut rng = Xoshiro256pp::seed_from_u64(5);
            let mapper = SpaceMapper::new(
                (0..dims).map(|d| format!("a{d}")).collect(),
                vec![Domain::new(0.0, 100.0); dims],
            );
            let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
            Arc::new(NumericView::new(mapper, data, (0..n as u32).collect()))
        };
        let chosen = |len, dims, engine_view_is_eval_view: bool| {
            let v = uniform(len, dims);
            let engine = ExtractionEngine::from_arc(Arc::clone(&v), IndexKind::Grid);
            let eval_view = if engine_view_is_eval_view {
                v
            } else {
                uniform(len, dims)
            };
            eval_index(&engine, &eval_view).name()
        };
        // 2-D: the heuristic grid caps at 64² cells, so 20k rows fill
        // about five per cell.
        assert_eq!(chosen(20_000, 2, true), "grid");
        assert_eq!(chosen(20_000, 2, false), "scan");
        // 5-D: about n cells, at most a row or two in each.
        assert_eq!(chosen(20_000, 5, true), "scan");
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
