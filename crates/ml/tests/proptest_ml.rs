//! Property-based tests for the CART tree and k-means invariants, running
//! on the hermetic `aide-testkit` harness.

use aide_ml::{ConfusionMatrix, DecisionTree, IncrementalTree, KMeans, TreeParams};
use aide_testkit::prop::gen;
use aide_testkit::{forall, prop_assert, prop_assert_eq};
use aide_util::geom::Rect;
use aide_util::rng::Rng;

/// Labeled 2-D points on a bounded lattice (duplicates allowed); the flat
/// `(data, labels)` training pair is assembled in each property body so
/// the raw points keep shrinking.
fn training_points() -> impl gen::Gen<Value = Vec<(u32, u32, bool)>> {
    gen::vec_of(
        (gen::u32_in(0..100), gen::u32_in(0..100), gen::any_bool()),
        2..150,
    )
}

fn flatten(points: &[(u32, u32, bool)]) -> (Vec<f64>, Vec<bool>) {
    let mut data = Vec::with_capacity(points.len() * 2);
    let mut labels = Vec::with_capacity(points.len());
    for &(x, y, l) in points {
        data.push(x as f64);
        data.push(y as f64);
        labels.push(l);
    }
    (data, labels)
}

forall! {
    cases = 64;

    /// The tree's leaf regions of both labels tile the bounding space:
    /// every point belongs to exactly one region, and that region's label
    /// matches `predict`.
    fn regions_partition_space_and_agree_with_predict(points in training_points()) {
        let (data, labels) = flatten(&points);
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let bounds = Rect::new(vec![-1.0, -1.0], vec![101.0, 101.0]);
        let relevant = tree.regions(true, &bounds);
        let irrelevant = tree.regions(false, &bounds);
        let vol: f64 = relevant.iter().chain(&irrelevant).map(Rect::volume).sum();
        prop_assert!((vol - bounds.volume()).abs() < 1e-6 * bounds.volume());
        // Check agreement on a probe grid.
        for gx in 0..10 {
            for gy in 0..10 {
                // Offset chosen so probes never coincide with a split
                // threshold (midpoints of integer coordinates are .0/.5).
                let p = [gx as f64 * 10.0 + 0.37, gy as f64 * 10.0 + 0.37];
                let in_relevant = relevant.iter().any(|r| r.contains(&p));
                prop_assert_eq!(in_relevant, tree.predict(&p), "probe {:?}", p);
            }
        }
    }

    /// The exact leaf boxes of both labels are pairwise disjoint and tile
    /// the bounds: every probe lies in exactly one box, whose label is
    /// `predict`'s. Probes include each split threshold `t` and its
    /// neighbours `t.next_down()` and `t.next_up()`, and training values
    /// come in pairs an ulp apart, so thresholds fall between adjacent
    /// floats.
    fn leaf_boxes_tile_the_bounds_and_agree_with_predict(
        points in gen::vec_of(
            (gen::u32_in(0..100), gen::u32_in(0..100), gen::any_bool(), gen::usize_in(0..3)),
            2..150,
        ),
    ) {
        let mut data = Vec::with_capacity(points.len() * 2);
        let mut labels = Vec::with_capacity(points.len());
        for &(x, y, label, ulp) in &points {
            let (x, y) = (x as f64, y as f64);
            data.extend(match ulp {
                0 => [x, y],
                1 => [x.next_up(), y],
                _ => [x, y.next_up()],
            });
            labels.push(label);
        }
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let bounds = Rect::new(vec![-1.0, -1.0], vec![101.0, 101.0]);
        let boxes: Vec<(Rect, bool)> = [true, false]
            .into_iter()
            .flat_map(|label| tree.leaf_boxes(label, &bounds).into_iter().map(move |b| (b, label)))
            .collect();
        for (i, (a, _)) in boxes.iter().enumerate() {
            for (b, _) in &boxes[i + 1..] {
                prop_assert!(!a.intersects(b), "{:?} and {:?} share a point", a, b);
            }
        }
        let mut coords: Vec<[f64; 2]> = Vec::new();
        for g in 0..10 {
            coords.push([g as f64 * 10.0 + 0.37; 2]);
        }
        for rule in tree.split_rules() {
            let t = rule.threshold;
            for v in [t.next_down(), t, t.next_up()] {
                for other in [-1.0, 0.37, 50.0, 101.0] {
                    let mut p = [other; 2];
                    p[rule.dim] = v;
                    coords.push(p);
                }
            }
        }
        for &x in coords.iter().map(|c| &c[0]) {
            for &y in coords.iter().map(|c| &c[1]) {
                let p = [x.clamp(-1.0, 101.0), y.clamp(-1.0, 101.0)];
                let holders: Vec<bool> =
                    boxes.iter().filter(|(b, _)| b.contains(&p)).map(|&(_, l)| l).collect();
                prop_assert_eq!(holders, vec![tree.predict(&p)], "probe {:?}", p);
            }
        }
    }

    /// With unconstrained induction, training accuracy is perfect unless
    /// two identical points carry contradicting labels.
    fn unconstrained_tree_fits_consistent_data(points in training_points()) {
        let (data, labels) = flatten(&points);
        // De-duplicate contradictions: keep first label per location.
        let mut seen = std::collections::HashMap::new();
        let mut d = Vec::new();
        let mut l = Vec::new();
        for (i, &label) in labels.iter().enumerate() {
            let key = (data[i * 2] as i64, data[i * 2 + 1] as i64);
            if seen.insert(key, label).is_none() {
                d.extend_from_slice(&data[i * 2..i * 2 + 2]);
                l.push(label);
            }
        }
        let params = TreeParams {
            min_samples_leaf: 1,
            min_samples_split: 2,
            // Pathological label arrangements can need one split per
            // point, so the depth cap must exceed the sample count; and
            // XOR-like patterns have zero first-split gain, so zero-gain
            // splits must be allowed for an exact fit.
            max_depth: 256,
            min_gain: 0.0,
            ..TreeParams::default()
        };
        let tree = DecisionTree::fit(2, &d, &l, &params);
        for i in 0..l.len() {
            prop_assert_eq!(tree.predict(&d[i * 2..i * 2 + 2]), l[i]);
        }
    }

    /// Pruning never increases the number of leaves, and a stronger alpha
    /// prunes at least as much.
    fn pruning_is_monotone(points in training_points(), alpha in gen::f64_in(0.0..0.2)) {
        let (data, labels) = flatten(&points);
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let mut weak = tree.clone();
        weak.prune(alpha);
        let mut strong = tree.clone();
        strong.prune(alpha * 2.0 + 0.01);
        prop_assert!(weak.num_leaves() <= tree.num_leaves());
        prop_assert!(strong.num_leaves() <= weak.num_leaves());
    }

    /// Feature importances are a probability vector (or all zero).
    fn importances_are_normalized(points in training_points()) {
        let (data, labels) = flatten(&points);
        let tree = DecisionTree::fit(2, &data, &labels, &TreeParams::default());
        let imp = tree.feature_importances();
        prop_assert_eq!(imp.len(), 2);
        let total: f64 = imp.iter().sum();
        prop_assert!(imp.iter().all(|&v| v >= 0.0));
        prop_assert!(total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9);
    }

    /// The incremental-maintenance contract: splitting any random label
    /// sequence into arbitrary batches and absorbing them via
    /// `IncrementalTree::refit` yields a tree bit-identical (node layout
    /// included) to a cold `DecisionTree::fit` on the concatenation — for
    /// every prefix, under both the permissive defaults and the session's
    /// stricter leaf constraints.
    fn incremental_refit_equals_cold_fit(
        points in training_points(),
        batch in gen::usize_in(1..12),
        strict in gen::any_bool(),
    ) {
        let (data, labels) = flatten(&points);
        let params = if strict {
            TreeParams { min_samples_leaf: 2, min_samples_split: 4, ..TreeParams::default() }
        } else {
            TreeParams::default()
        };
        let n = labels.len();
        let first = batch.min(n);
        let mut inc = IncrementalTree::fit(2, &data[..first * 2], &labels[..first], &params);
        let mut end = first;
        while end < n {
            let next = (end + batch).min(n);
            inc.refit(&data[end * 2..next * 2], &labels[end..next]);
            let cold = DecisionTree::fit(2, &data[..next * 2], &labels[..next], &params);
            prop_assert_eq!(inc.tree(), &cold, "prefix {} (batch {})", next, batch);
            end = next;
        }
        prop_assert_eq!(inc.samples(), n);
    }

    /// Warm-started k-means re-seeded with a converged model's centroids
    /// reproduces that model exactly without consuming RNG draws, and a
    /// warm fit from arbitrary seed centroids never ends with a worse
    /// inertia than the seed configuration it started from.
    fn kmeans_warm_start_converges_no_worse(
        points in gen::vec_of((gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)), 1..120),
        k in gen::usize_in(1..10),
        seed in gen::any_u64(),
    ) {
        let data: Vec<f64> = points.iter().flat_map(|&(x, y)| [x, y]).collect();
        let mut rng = aide_util::rng::Xoshiro256pp::seed_from_u64(seed);
        let cold = KMeans::fit(2, &data, k, &mut rng);
        let kk = cold.k();
        let centroids: Vec<f64> = (0..kk).flat_map(|c| cold.centroid(c).to_vec()).collect();
        let mut warm_rng = aide_util::rng::Xoshiro256pp::seed_from_u64(seed ^ 0xabcd);
        let warm = KMeans::fit_warm(2, &data, kk, Some(&centroids), &mut warm_rng);
        prop_assert_eq!(&warm, &cold);
        prop_assert_eq!(
            warm_rng.next_u64(),
            aide_util::rng::Xoshiro256pp::seed_from_u64(seed ^ 0xabcd).next_u64()
        );
        // Arbitrary (distinct-point) seeds: Lloyd only improves on them.
        let sq = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        let seeds: Vec<f64> = (0..kk)
            .flat_map(|c| {
                let i = (c * points.len()) / kk;
                [data[i * 2], data[i * 2 + 1]]
            })
            .collect();
        let seed_inertia: f64 = points
            .iter()
            .map(|&(x, y)| {
                (0..kk)
                    .map(|c| sq(&[x, y], &seeds[c * 2..c * 2 + 2]))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        let warm2 = KMeans::fit_warm(2, &data, kk, Some(&seeds), &mut warm_rng);
        prop_assert!(warm2.inertia() <= seed_inertia + 1e-9);
    }

    /// k-means invariants: assignments point at the nearest centroid and
    /// every cluster id is within range.
    fn kmeans_assigns_nearest_centroid(
        points in gen::vec_of((gen::f64_in(0.0..100.0), gen::f64_in(0.0..100.0)), 1..120),
        k in gen::usize_in(1..10),
        seed in gen::any_u64(),
    ) {
        let data: Vec<f64> = points.iter().flat_map(|&(x, y)| [x, y]).collect();
        let mut rng = aide_util::rng::Xoshiro256pp::seed_from_u64(seed);
        let km = KMeans::fit(2, &data, k, &mut rng);
        prop_assert!(km.k() <= k.min(points.len()));
        let sq = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
        };
        for (i, &(x, y)) in points.iter().enumerate() {
            let p = [x, y];
            let assigned = km.assignment(i);
            prop_assert!(assigned < km.k());
            let d_assigned = sq(&p, km.centroid(assigned));
            for c in 0..km.k() {
                prop_assert!(d_assigned <= sq(&p, km.centroid(c)) + 1e-9);
            }
        }
    }

    /// F-measure is symmetric in the harmonic-mean sense and bounded.
    fn f_measure_is_bounded(
        pairs in gen::vec_of((gen::any_bool(), gen::any_bool()), 0..200),
    ) {
        let m = ConfusionMatrix::from_pairs(pairs.clone());
        let f = m.f_measure();
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(f <= m.precision().max(m.recall()) + 1e-12);
        if m.precision() > 0.0 && m.recall() > 0.0 {
            prop_assert!(f >= m.precision().min(m.recall()) - 1e-12);
        }
    }
}
