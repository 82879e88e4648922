//! Substrate microbenchmarks (not a paper figure): the cost drivers under
//! every experiment — CART training, k-means, index construction, the
//! two rectangle-query access paths (grid / full scan) and sample
//! selection, plus SQL-query evaluation over the column store.

use std::sync::Arc;

use aide_bench::harness::{dense_view, multi_dim_view, sdss_table, uniform_lanes_view};
use aide_core::{evaluate_model_indexed, evaluate_model_with, SizeClass, TargetQuery};
use aide_index::{
    ExtractionEngine, GridIndex, IndexKind, RegionIndex, ScanIndex, SharedRegionCache,
};
use aide_ml::{DecisionTree, KMeans, TreeParams};
use aide_query::parse_selection;
use aide_testkit::bench::{black_box, Harness};
use aide_util::geom::Rect;
use aide_util::par::Pool;
use aide_util::rng::{Rng, Xoshiro256pp};
use aide_util::trace::Tracer;

fn training_set(n: usize, seed: u64) -> (Vec<f64>, Vec<bool>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * 2);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let x = rng.uniform(0.0, 100.0);
        let y = rng.uniform(0.0, 100.0);
        data.push(x);
        data.push(y);
        labels.push((40.0..48.0).contains(&x) && (55.0..63.0).contains(&y));
    }
    (data, labels)
}

/// Untimed bench setup: a fork of `engine` (same view, index and pool)
/// holding a fresh, empty region cache and a handle to `tracer`.
fn cold_fork(engine: &ExtractionEngine, tracer: Tracer) -> impl FnMut() -> ExtractionEngine + '_ {
    move || {
        let mut fork = engine.fork_session();
        fork.set_shared_cache(SharedRegionCache::new());
        fork.set_tracer(tracer.clone());
        fork
    }
}

fn main() {
    let mut h = Harness::from_args("substrate");

    // --- CART training ----------------------------------------------------
    let mut group = h.group("substrate/cart_fit");
    for n in [200usize, 1_000] {
        let (data, labels) = training_set(n, 3);
        group.bench(&format!("{n}_samples"), || {
            DecisionTree::fit(
                2,
                black_box(&data),
                black_box(&labels),
                &TreeParams::default(),
            )
        });
    }
    drop(group);

    // --- k-means ------------------------------------------------------------
    let mut group = h.group("substrate/kmeans");
    let (data, _) = training_set(5_000, 4);
    for k in [16usize, 64] {
        group.bench(&format!("k{k}_5000pts"), || {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            KMeans::fit(2, black_box(&data), k, &mut rng)
        });
    }
    drop(group);

    // --- Rectangle queries: grid vs scan ------------------------------------
    let table = sdss_table(200_000, 1);
    let view = Arc::new(dense_view(&table));
    let rect = Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]);
    // `RegionIndex::count` on the built index: measures the access path,
    // not the cache.
    let mut group = h.group("substrate/region_query");
    let paths: [Box<dyn RegionIndex>; 2] = [
        Box::new(GridIndex::build_with(&view, &Pool::from_env(0))),
        Box::new(ScanIndex::new()),
    ];
    for index in paths {
        let index_view = Arc::clone(&view);
        let rect = rect.clone();
        group.bench(index.name(), move || {
            index.count(&index_view, black_box(&rect))
        });
    }
    drop(group);

    // --- Columnar containment kernel -----------------------------------------
    // The branch-free SoA kernel against an explicit per-row gather +
    // `Rect::contains` loop over the same view — the row-major access
    // pattern the kernel replaced. Same 200 k view and rectangle as the
    // region-query group, so the numbers compose.
    let mut group = h.group("substrate/columnar");
    let scan_view = Arc::clone(&view);
    let scan_rect = rect.clone();
    group.bench("scan_collect/200k", move || {
        let mut out = Vec::new();
        scan_view.scan_rect_into(black_box(&scan_rect), 0, scan_view.len(), &mut out);
        out.len()
    });
    let count_view = Arc::clone(&view);
    let count_rect = rect.clone();
    group.bench("scan_count/200k", move || {
        count_view.count_rect(black_box(&count_rect), 0, count_view.len())
    });
    let ref_view = Arc::clone(&view);
    let ref_rect = rect.clone();
    group.bench("rowmajor_reference/200k", move || {
        let mut p = vec![0.0; ref_view.dims()];
        let mut out: Vec<u32> = Vec::new();
        for i in 0..ref_view.len() {
            ref_view.fill_point(i, &mut p);
            if ref_rect.contains(&p) {
                out.push(i as u32);
            }
        }
        out.len()
    });
    // Sparse candidate list, the grid residual-filter shape.
    let candidates: Vec<u32> = (0..view.len() as u32).step_by(3).collect();
    let filt_view = Arc::clone(&view);
    let filt_rect = rect.clone();
    group.bench("candidate_filter/66k_of_200k", move || {
        let mut out = Vec::new();
        filt_view.filter_indices_into(black_box(&filt_rect), &candidates, &mut out);
        out.len()
    });
    drop(group);

    // --- Parallel hot paths: explicit 1-thread vs 4-thread pools ------------
    // Results are bit-identical across thread counts (aide_util::par); the
    // pairs measure the wall-clock effect alone.
    let target = TargetQuery::new(vec![rect.clone()]);
    let (tree_data, tree_labels) = training_set(1_000, 5);
    let tree = DecisionTree::fit(2, &tree_data, &tree_labels, &TreeParams::default());
    let mut group = h.group("substrate/parallel");
    for threads in [1usize, 4] {
        let pool = Pool::new(threads);
        group.bench(&format!("eval_200k/t{threads}"), || {
            evaluate_model_with(Some(black_box(&tree)), &view, &target, &pool)
        });
        group.bench(&format!("kmeans_k64_5000pts/t{threads}"), || {
            let mut rng = Xoshiro256pp::seed_from_u64(7);
            KMeans::fit_with(2, black_box(&data), 64, &mut rng, &pool)
        });
        group.bench(&format!("grid_build_200k/t{threads}"), || {
            GridIndex::build_with(black_box(&view), &pool)
        });
    }
    drop(group);

    // --- F-measure from grid cells ---------------------------------------------
    // `parallel/eval_200k/t1`'s evaluation as a session runs it: counted
    // over the grid's cells, so only the rows of cells a tree split or a
    // target edge cuts are tested. The guard outside the timer pins the
    // matrix to the per-row one.
    let mut group = h.group("substrate/eval");
    let grid = GridIndex::build_with(&view, &Pool::from_env(0));
    let serial = Pool::serial();
    assert_eq!(
        evaluate_model_indexed(Some(&tree), &view, &grid, &target, &serial),
        evaluate_model_with(Some(&tree), &view, &target, &serial),
        "cell-counted matrix differs from the per-row one"
    );
    group.bench("cells_200k", || {
        evaluate_model_indexed(Some(black_box(&tree)), &view, &grid, &target, &serial)
    });
    // The evaluators on 5-D views, where the heuristic grid holds only a
    // few rows per non-empty cell: `cells_*` counts by the grid's cells,
    // `rows_*` is the per-row loop. The SDSS-like view (about 5 rows per
    // non-empty cell) is one a session counts by cells; the uniform one
    // (about 1.5) is one it scans row by row, as the grid is slower there.
    let sdss_5d = multi_dim_view(&table, 5);
    let uniform_5d = uniform_lanes_view(200_000, 5, 7);
    for (tag, view) in [("sdss", &sdss_5d), ("uniform", &uniform_5d)] {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let target = TargetQuery::generate(view, 1, SizeClass::Large, 2, &mut rng);
        let labels: Vec<bool> = (0..1_000)
            .map(|i| target.contains(&view.point_vec(i)))
            .collect();
        let data: Vec<f64> = (0..1_000).flat_map(|i| view.point_vec(i)).collect();
        let tree = DecisionTree::fit(5, &data, &labels, &TreeParams::default());
        let grid = GridIndex::build_with(view, &Pool::from_env(0));
        assert_eq!(
            evaluate_model_indexed(Some(&tree), view, &grid, &target, &serial),
            evaluate_model_with(Some(&tree), view, &target, &serial),
            "cell-counted 5-D matrix differs from the per-row one"
        );
        group.bench(&format!("cells_5d_{tag}_200k"), || {
            evaluate_model_indexed(Some(black_box(&tree)), view, &grid, &target, &serial)
        });
        group.bench(&format!("rows_5d_{tag}_200k"), || {
            evaluate_model_with(Some(black_box(&tree)), view, &target, &serial)
        });
    }
    drop(group);

    // --- Batched extraction and the region-result cache ---------------------
    // The rect workload mirrors the misclassified phase: small sampling
    // areas around false-negative-like points. `serial_loop` vs
    // `query_batch` isolates the batching win (every call starts from an
    // empty cache: the untimed setup forks the engine and installs a fresh
    // one); `cold_cache` vs `warm_cache` isolates the cache win (a fresh
    // engine per iteration vs a primed one answering everything from cache).
    let mut rect_rng = Xoshiro256pp::seed_from_u64(9);
    let fn_rects: Vec<Rect> = (0..48)
        .map(|_| {
            let x = rect_rng.uniform(0.0, 100.0);
            let y = rect_rng.uniform(0.0, 100.0);
            Rect::new(
                vec![(x - 1.5).max(0.0), (y - 1.5).max(0.0)],
                vec![(x + 1.5).min(100.0), (y + 1.5).min(100.0)],
            )
        })
        .collect();
    let mut group = h.group("substrate/batch");
    for threads in [1usize, 4] {
        let mut engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        engine.set_pool(Pool::new(threads));
        let rects = fn_rects.clone();
        group.bench_batched(
            &format!("serial_loop_48rects/t{threads}"),
            cold_fork(&engine, Tracer::disabled()),
            move |mut engine| -> usize {
                rects.iter().map(|r| engine.query_in(black_box(r)).len()).sum()
            },
        );

        let rects = fn_rects.clone();
        group.bench_batched(
            &format!("query_batch_48rects/t{threads}"),
            cold_fork(&engine, Tracer::disabled()),
            move |mut engine| engine.query_batch(black_box(&rects)),
        );
    }

    let cold_view = Arc::clone(&view);
    let cold_rects = fn_rects.clone();
    group.bench_batched(
        "cold_cache_48rects",
        move || ExtractionEngine::from_arc(Arc::clone(&cold_view), IndexKind::Grid),
        move |mut engine| engine.query_batch(black_box(&cold_rects)),
    );

    let mut warm_engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    warm_engine.query_batch(&fn_rects); // prime: every later batch hits
    let warm_rects = fn_rects.clone();
    group.bench("warm_cache_48rects", move || {
        warm_engine.query_batch(black_box(&warm_rects))
    });
    drop(group);

    // --- Sample selection -----------------------------------------------------
    // One pick from a large cached grid result (the whole 200 k view) with
    // no labeled rows and with 1 000 labeled rows spread over the view.
    // Removing the labels costs O(labels · log); the draw itself still
    // visits every candidate position once.
    let mut group = h.group("substrate/select");
    let mut select_engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let whole = select_engine.query_batch_outputs(&[Rect::full_domain(2)]);
    let stride = (view.len() / 1_000) as u32;
    for labels in [0u32, 1_000] {
        let excluded = select_engine.exclusions((0..labels).map(|k| k * stride));
        let mut engine = select_engine.fork_session();
        let outs = whole.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        group.bench(&format!("pick1_200k/e{labels}"), move || {
            engine.select_batch_streams(black_box(&outs), &[1], &mut rng, &excluded)
        });
    }
    drop(group);

    // Observability guard, outside the timers: a warm batch over this
    // workload must actually hit the cache.
    let mut check = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    check.query_batch(&fn_rects);
    check.query_batch(&fn_rects);
    assert!(
        check.stats().cache_hits >= 1,
        "warm query_batch produced no cache hits"
    );

    // --- Tracing overhead -----------------------------------------------------
    // The disabled tracer must cost one branch per batch call: the
    // `disabled` and `enabled` pair run the same 48-rect batch (each call
    // on a fork with a fresh cache, so every call does real extraction
    // work) and differ only in the tracer wired into the engine.
    // `emit_only` prices the emission path itself — ring-buffer push of a
    // typical wave event, no extraction.
    let mut group = h.group("substrate/trace");
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    for (name, tracer) in [("disabled", Tracer::disabled()), ("enabled", Tracer::new())] {
        let rects = fn_rects.clone();
        group.bench_batched(
            &format!("query_batch_48rects/{name}"),
            cold_fork(&engine, tracer),
            move |mut engine| engine.query_batch(black_box(&rects)),
        );
    }
    let emitter = Tracer::ring(1 << 10);
    group.bench("emit_only/wave_event", move || {
        emitter.wave(
            black_box(48),
            black_box(48),
            black_box(12),
            black_box(36),
            black_box(4_096),
            black_box(1_024),
            black_box(1_500),
        );
    });
    drop(group);

    // --- SQL evaluation over the column store --------------------------------
    let mut group = h.group("substrate/sql_eval");
    let sql = "SELECT * FROM photoobjall WHERE (rowc >= 800 AND rowc <= 960 \
               AND colc >= 1100 AND colc <= 1260) OR (ra >= 180 AND ra <= 200)";
    let query = parse_selection(sql).expect("benchmark query parses");
    group.bench("disjunctive_200k_rows", || {
        query.evaluate(black_box(&table)).expect("valid query")
    });
    group.bench("parse", || {
        parse_selection(black_box(sql)).expect("valid query")
    });
    drop(group);

    h.finish();
}
