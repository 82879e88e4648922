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
    // not the cache. `grid_query` builds the same answer as the query
    // output a cache miss stores: full cells by reference, cut cells as
    // bit masks.
    let mut group = h.group("substrate/region_query");
    let grid = Arc::new(GridIndex::build_with(&view, &Pool::from_env(0)));
    let paths: [Arc<dyn RegionIndex>; 2] = [grid.clone(), Arc::new(ScanIndex::new())];
    for index in paths {
        let index_view = Arc::clone(&view);
        let rect = rect.clone();
        group.bench(index.name(), move || {
            index.count(&index_view, black_box(&rect))
        });
    }
    let query_view = Arc::clone(&view);
    let query_rect = rect.clone();
    group.bench("grid_query", move || {
        grid.query(&query_view, black_box(&query_rect))
    });
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
    // Sparse candidate list through the mask kernel, the shape of the
    // grid's cut cells.
    let candidates: Vec<u32> = (0..view.len() as u32).step_by(3).collect();
    let filt_view = Arc::clone(&view);
    let filt_rect = rect.clone();
    group.bench("candidate_filter/66k_of_200k", move || {
        let mut out = Vec::new();
        filt_view.mask_indices_into(black_box(&filt_rect), &candidates, &mut out);
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

    // --- F-measure from rectangle counts --------------------------------------
    // `parallel/eval_200k/t1`'s evaluation as a session runs it: grid
    // counts of the tree's relevant leaf boxes and of their intersections
    // with the target's areas. The guard outside the timer pins the
    // matrix to the per-row one.
    let mut group = h.group("substrate/eval");
    let grid = GridIndex::build_with(&view, &Pool::from_env(0));
    let serial = Pool::serial();
    assert_eq!(
        evaluate_model_indexed(Some(&tree), &view, &grid, &target, &serial),
        evaluate_model_with(Some(&tree), &view, &target, &serial),
        "rectangle-counted matrix differs from the per-row one"
    );
    group.bench("rects_200k", || {
        evaluate_model_indexed(Some(black_box(&tree)), &view, &grid, &target, &serial)
    });
    // The evaluators on 5- to 20-D views, where the heuristic grid holds
    // a few rows per cell or fewer: `rects_*` counts rectangles over the
    // grid, `rows_*` is the per-row loop. `random_tree` is a tree fitted
    // to random labels, with over a hundred relevant leaves, the most
    // boxes a count pays for. Sessions count boxes only on grids of at
    // least 8 buckets per dimension (`GridIndex::counts_cheaply`); the
    // 6-D view's grid has 8, the 7-D view's 6, the 12-D view's 3 and the
    // 20-D view's 2, so these pairs sit on both sides of that line.
    let sdss_5d = multi_dim_view(&table, 5);
    let uniform_5d = uniform_lanes_view(200_000, 5, 7);
    let uniform_6d = uniform_lanes_view(200_000, 6, 7);
    let uniform_7d = uniform_lanes_view(100_000, 7, 7);
    let uniform_12d = uniform_lanes_view(50_000, 12, 7);
    let uniform_20d = uniform_lanes_view(50_000, 20, 7);
    let mut label_rng = Xoshiro256pp::seed_from_u64(17);
    for (tag, view, random) in [
        ("5d_sdss_200k", &sdss_5d, false),
        ("5d_uniform_200k", &uniform_5d, false),
        ("5d_random_tree_uniform_200k", &uniform_5d, true),
        ("6d_random_tree_uniform_200k", &uniform_6d, true),
        ("7d_random_tree_uniform_100k", &uniform_7d, true),
        ("12d_uniform_50k", &uniform_12d, false),
        ("20d_uniform_50k", &uniform_20d, false),
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        let target = TargetQuery::generate(view, 1, SizeClass::Large, 2, &mut rng);
        let labels: Vec<bool> = (0..1_000)
            .map(|i| {
                if random {
                    label_rng.chance(0.5)
                } else {
                    target.contains(&view.point_vec(i))
                }
            })
            .collect();
        let data: Vec<f64> = (0..1_000).flat_map(|i| view.point_vec(i)).collect();
        let tree = DecisionTree::fit(view.dims(), &data, &labels, &TreeParams::default());
        let grid = GridIndex::build_with(view, &Pool::from_env(0));
        assert_eq!(
            evaluate_model_indexed(Some(&tree), view, &grid, &target, &serial),
            evaluate_model_with(Some(&tree), view, &target, &serial),
            "rectangle-counted {tag} matrix differs from the per-row one"
        );
        group.bench(&format!("rects_{tag}"), || {
            evaluate_model_indexed(Some(black_box(&tree)), view, &grid, &target, &serial)
        });
        group.bench(&format!("rows_{tag}"), || {
            evaluate_model_with(Some(black_box(&tree)), view, &target, &serial)
        });
    }
    drop(group);

    // --- Batched extraction and the region-result cache ---------------------
    // The rect workload mirrors the misclassified phase: small sampling
    // areas around false-negative-like points. `serial_loop` vs
    // `query_batch` (`query_batch_outputs`) isolates the batching win (every call starts from an
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
            move |mut engine| engine.query_batch_outputs(black_box(&rects)),
        );
    }

    let cold_view = Arc::clone(&view);
    let cold_rects = fn_rects.clone();
    group.bench_batched(
        "cold_cache_48rects",
        move || ExtractionEngine::from_arc(Arc::clone(&cold_view), IndexKind::Grid),
        move |mut engine| engine.query_batch_outputs(black_box(&cold_rects)),
    );

    let mut warm_engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    warm_engine.query_batch_outputs(&fn_rects); // prime: every later batch hits
    let warm_rects = fn_rects.clone();
    group.bench("warm_cache_48rects", move || {
        warm_engine.query_batch_outputs(black_box(&warm_rects))
    });
    drop(group);

    // --- Sample selection -----------------------------------------------------
    // One pick from a large cached grid result (the whole 200 k view) with
    // no labeled rows and with 1 000 labeled rows spread over the view.
    // Removing the labels costs O(labels · log) and the draw one random
    // number per sample, whatever the result's size.
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
    // Twenty picks from a result that mixes full cells (the interior) and
    // masked ones (every cell its edge cuts), with 1 000 labeled rows: a
    // pick in a masked cell costs a search over the cell's mask ranks and
    // a select in one word.
    let mixed = select_engine.query_batch_outputs(&[Rect::new(vec![10.3, 5.7], vec![87.9, 93.1])]);
    let excluded = select_engine.exclusions((0..1_000).map(|k| k * stride));
    let mut engine = select_engine.fork_session();
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    group.bench("pick20_mixed_200k/e1000", move || {
        engine.select_batch_streams(black_box(&mixed), &[20], &mut rng, &excluded)
    });
    // The sampler alone, on the shapes its callers draw, once per way it
    // tracks what it took: a scan of its output (a batch from a 10 M-row
    // result), a flag per index (discovery's 20 000-row `fit_cap`
    // subsample of a 30 k-row cluster range and of a 1 M-row view) and a
    // hash set (the same subsample of a 10 M-row view).
    for (name, n, k) in [
        ("floyd_scan/20_of_10m", 10_000_000usize, 20usize),
        ("floyd_flags/20k_of_30k", 30_000, 20_000),
        ("floyd_flags/20k_of_1m", 1_000_000, 20_000),
        ("floyd_hash/20k_of_10m", 10_000_000, 20_000),
    ] {
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        group.bench(name, move || rng.sample_indices(black_box(n), black_box(k)));
    }
    drop(group);

    // Observability guard, outside the timers: a warm batch over this
    // workload must actually hit the cache.
    let mut check = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    check.query_batch_outputs(&fn_rects);
    check.query_batch_outputs(&fn_rects);
    assert!(
        check.stats().cache_hits >= 1,
        "warm query_batch_outputs produced no cache hits"
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
            move |mut engine| engine.query_batch_outputs(black_box(&rects)),
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
