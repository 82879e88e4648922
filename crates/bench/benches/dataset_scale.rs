//! Figure 9(b,c) companion: exploration cost on the full dataset vs the
//! 10 % sampled replica, across database sizes.

use std::path::PathBuf;
use std::sync::Arc;

use aide_bench::harness::{
    cached_uniform_view, dense_view, sampled_replica, sdss_table, workloads, ExpOptions,
};
use aide_core::{
    evaluate_model_indexed, evaluate_model_with, ExplorationSession, SessionConfig, SizeClass,
    TargetQuery,
};
use aide_data::{load_view, NumericView};
use aide_index::{ExtractionEngine, GridIndex, IndexKind, RegionIndex};
use aide_ml::{DecisionTree, TreeParams};
use aide_testkit::bench::{black_box, Harness};
use aide_util::geom::Rect;
use aide_util::par::Pool;

/// A tree fitted on the first 2 000 rows of `view`, labeled by `target`.
fn fit_on_prefix(view: &NumericView, target: &TargetQuery) -> DecisionTree {
    let n_train = view.len().min(2_000);
    let labels: Vec<bool> = (0..n_train)
        .map(|i| target.contains(&view.point_vec(i)))
        .collect();
    let data: Vec<f64> = (0..n_train).flat_map(|i| view.point_vec(i)).collect();
    DecisionTree::fit(2, &data, &labels, &TreeParams::default())
}

fn main() {
    let mut h = Harness::from_args("dataset_scale");
    let mut group = h.group("dataset_scale");
    for rows in [50_000usize, 200_000] {
        let table = sdss_table(rows, 1);
        let full = Arc::new(dense_view(&table));
        let sampled = Arc::new(sampled_replica(&table, &["rowc", "colc"], 0.1, 99));
        let options = ExpOptions {
            rows,
            sessions: 1,
            seed: 3,
        };
        let w = workloads(&full, 1, SizeClass::Large, 2, &options, 0x9B)[0].clone();
        let mut run = |name: String, sample_view: &Arc<NumericView>| {
            let sample_view = Arc::clone(sample_view);
            let eval_view = Arc::clone(&full);
            let w = w.clone();
            group.bench_batched(
                &name,
                || {
                    let engine =
                        ExtractionEngine::from_arc(Arc::clone(&sample_view), IndexKind::Grid);
                    ExplorationSession::new(
                        SessionConfig {
                            // Evaluation over the full view dominates
                            // otherwise; the paper's system time
                            // excludes accuracy evaluation.
                            eval_every: usize::MAX,
                            ..SessionConfig::default()
                        },
                        engine,
                        Arc::clone(&eval_view),
                        w.target.clone(),
                        w.rng.clone(),
                    )
                },
                |mut session| {
                    for _ in 0..10 {
                        session.run_iteration();
                    }
                    session
                },
            );
        };
        run(format!("full/{rows}"), &full);
        run(format!("sampled10pct/{rows}"), &sampled);
    }
    drop(group);

    // Full-view accuracy evaluation — the per-iteration cost the session
    // excludes above — on 1-thread vs 4-thread pools (bit-identical
    // results; the pair measures wall-clock only).
    let mut group = h.group("dataset_scale/eval");
    for rows in [50_000usize, 200_000] {
        let table = sdss_table(rows, 1);
        let full = Arc::new(dense_view(&table));
        let options = ExpOptions {
            rows,
            sessions: 1,
            seed: 3,
        };
        let w = workloads(&full, 1, SizeClass::Large, 2, &options, 0x9B)[0].clone();
        let tree = fit_on_prefix(&full, &w.target);
        for threads in [1usize, 4] {
            let pool = Pool::new(threads);
            let (tree, full, target) = (&tree, &full, &w.target);
            group.bench(&format!("full_eval_t{threads}/{rows}"), move || {
                evaluate_model_with(Some(black_box(tree)), full, target, &pool)
            });
        }
    }
    drop(group);

    // --- Columnar substrate at scale: aide-view/1 file → engine -------------
    // The whole pipeline runs from an on-disk dataset (generated once,
    // cached under target/datasets/): streamed load, grid build, an
    // uncached rectangle count and query, and three steering iterations.
    // The 1 M group always runs (the CI smoke); the 10 M group — ~240 MB
    // on disk and tens of seconds of bench time — opts in via
    // AIDE_BENCH_10M=1, which the perf-tracking job sets. Gating on the
    // env var alone keeps the bench-record set identical across
    // AIDE_THREADS values (the threads-matrix CI job diffs record names).
    let full_scale = std::env::var("AIDE_BENCH_10M").is_ok_and(|v| v == "1");
    let scales: &[(usize, &str)] = if full_scale {
        &[(1_000_000, "1m"), (10_000_000, "10m")]
    } else {
        &[(1_000_000, "1m")]
    };
    for &(n, tag) in scales {
        let mut group = h.group(&format!("dataset_scale/{tag}"));
        // Anchor at the workspace target dir: cargo runs benches with the
        // package dir as cwd, and a bare relative path would grow a stray
        // (ungitignored) crates/bench/target/ tree.
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/datasets")
            .join(format!("uniform2d_{tag}.aideview"));
        let view = Arc::new(cached_uniform_view(&path, n, 2, 0xC01));
        let load_path = path.clone();
        group.bench("load_view", move || {
            load_view(black_box(&load_path)).expect("cached dataset loads")
        });
        let build_view = Arc::clone(&view);
        group.bench("grid_build", move || {
            GridIndex::build_with(black_box(&build_view), &Pool::from_env(0))
        });
        // `RegionIndex::count` on the built index: the access path, not
        // the cache.
        let grid = Arc::new(GridIndex::build_with(&view, &Pool::from_env(0)));
        let count_index = Arc::clone(&grid);
        let count_view = Arc::clone(&view);
        let count_rect = Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]);
        group.bench("count_uncached", move || {
            count_index.count(&count_view, black_box(&count_rect))
        });
        // `RegionIndex::query` on the same rectangle: the runs and masks
        // of an answer the cache would keep.
        let query_index = Arc::clone(&grid);
        let query_view = Arc::clone(&view);
        let query_rect = Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]);
        group.bench("query_uncached", move || {
            query_index.query(&query_view, black_box(&query_rect))
        });
        let options = ExpOptions {
            rows: n,
            sessions: 1,
            seed: 3,
        };
        let w = workloads(&view, 1, SizeClass::Large, 2, &options, 0xA7)[0].clone();
        let (tree, target) = (fit_on_prefix(&view, &w.target), w.target.clone());
        let session_view = Arc::clone(&view);
        group.bench_batched(
            "session_3iters",
            move || {
                let engine =
                    ExtractionEngine::from_arc(Arc::clone(&session_view), IndexKind::Grid);
                ExplorationSession::new(
                    SessionConfig {
                        // Full-view evaluation would dwarf the steering
                        // cost at this scale; the paper's system time
                        // excludes accuracy evaluation.
                        eval_every: usize::MAX,
                        ..SessionConfig::default()
                    },
                    engine,
                    Arc::clone(&session_view),
                    w.target.clone(),
                    w.rng.clone(),
                )
            },
            |mut session| {
                for _ in 0..3 {
                    session.run_iteration();
                }
                session
            },
        );
        drop(group);

        // Full-view F-measure at this scale as a session computes it:
        // grid counts of the tree's relevant leaf boxes and their
        // intersections with the target's areas (1-thread pool; compare
        // with `full_eval_t1`, the per-row loop).
        let mut group = h.group("dataset_scale/eval");
        let eval_view = Arc::clone(&view);
        let pool = Pool::serial();
        group.bench(&format!("rects/{tag}"), move || {
            evaluate_model_indexed(
                Some(black_box(&tree)),
                &eval_view,
                grid.as_ref(),
                &target,
                &pool,
            )
        });
        drop(group);
    }

    h.finish();
}
