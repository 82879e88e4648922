//! Phase 2 — misclassified exploitation (paper §4).
//!
//! False negatives (objects the user labeled relevant but the tree
//! classifies irrelevant) mark relevant areas the model has not yet carved
//! out. This phase samples around them so the next tree can grow those
//! areas:
//!
//! * baseline (§4.2): `f` random samples within normalized distance `y`
//!   of *each* false negative — effective but one extraction query per
//!   object, with heavily overlapping sampling areas;
//! * clustering optimization (§4.2): k-means the false negatives into
//!   `k` clusters, where `k` = the number of relevant objects produced by
//!   the discovery phase (the paper's estimate of how many relevant areas
//!   have been "hit"), and issue *one* query per cluster over the cluster's
//!   bounding box expanded by `y`.

use aide_index::{Exclusions, ExtractionEngine, Sample};
use aide_ml::KMeans;
use aide_util::geom::Rect;
use aide_util::rng::Xoshiro256pp;

use crate::config::SessionConfig;
use crate::labeled::LabeledSet;
use crate::model_state::MisclassState;

/// Outcome of one misclassified-exploitation round.
#[derive(Debug, Clone, PartialEq)]
pub struct MisclassOutcome {
    /// Extracted samples to show the user.
    pub samples: Vec<Sample>,
    /// Extraction queries issued (the phase's cost driver).
    pub queries: u64,
    /// Whether the clustering optimization was applied this round.
    pub clustered: bool,
    /// The false negatives (indices into `labeled`, as passed in) the
    /// phase actually issued a sampling query around this round. False
    /// negatives skipped because the budget ran out first are *not*
    /// listed — retirement accounting must only charge attempts that
    /// actually happened.
    pub attempted: Vec<usize>,
    /// Wall-clock microseconds spent fitting the false-negative k-means
    /// model this round (0 when the round was unclustered).
    pub fit_us: u64,
}

/// Picks the sampling distance y: statically from the configuration, or
/// — with `adaptive_misclass_y` — from the current model's predicted
/// areas (§4.2 notes "the closer the value y is to the width of the
/// relevant area we aim to predict, the higher the probability to
/// collect relevant objects", and leaves the dynamic adaptation as
/// future work; this implements it as half the mean predicted width).
fn sampling_distance(config: &SessionConfig, regions: &[Rect]) -> f64 {
    if !config.adaptive_misclass_y || regions.is_empty() {
        return config.misclass_y;
    }
    let dims = regions[0].dims();
    let total: f64 = regions
        .iter()
        .map(|r| (0..dims).map(|d| r.width(d)).sum::<f64>() / dims as f64)
        .sum();
    let mean_width = total / regions.len() as f64;
    (mean_width / 2.0).clamp(0.5, 10.0)
}

/// Runs the misclassified-exploitation phase.
///
/// `false_negatives` are indices into `labeled`; `k_discovery` is the
/// number of relevant objects found by the discovery phase so far;
/// `regions` are the current model's relevant areas (used by the
/// adaptive-y optimization); `budget` caps the samples extracted this
/// round. `state` carries the previous round's cluster centroids: when
/// the cluster count is unchanged the k-means fit warm-starts from them,
/// skipping the k-means++ pass entirely.
#[allow(clippy::too_many_arguments)]
pub fn exploit_misclassified(
    config: &SessionConfig,
    labeled: &LabeledSet,
    false_negatives: &[usize],
    k_discovery: usize,
    regions: &[Rect],
    budget: usize,
    engine: &mut ExtractionEngine,
    excluded: &Exclusions,
    rng: &mut Xoshiro256pp,
    state: &mut MisclassState,
) -> MisclassOutcome {
    let mut outcome = MisclassOutcome {
        samples: Vec::new(),
        queries: 0,
        clustered: false,
        attempted: Vec::new(),
        fit_us: 0,
    };
    if false_negatives.is_empty() || budget == 0 {
        return outcome;
    }
    let dims = labeled.dims();
    let bounds = Rect::full_domain(dims);
    let y = sampling_distance(config, regions);
    let f = config.misclass_f.max(1);
    let before = engine.stats().queries;

    let use_clusters =
        config.clustered_misclassified && k_discovery > 0 && k_discovery < false_negatives.len();
    // Each sampling area is pure in the phase inputs, so collect them all
    // first — (area, per-area sample cap, covered FNs) — and batch the
    // extraction queries instead of looping over `sample_in_excluding`.
    let areas: Vec<(Rect, usize, Vec<usize>)> = if use_clusters {
        outcome.clustered = true;
        // Cluster the false negatives; one sampling area per cluster.
        let mut fn_points = Vec::with_capacity(false_negatives.len() * dims);
        for &i in false_negatives {
            fn_points.extend_from_slice(labeled.point(i));
        }
        let k_eff = k_discovery.min(false_negatives.len());
        let warm = state.warm_centroids(dims, k_eff);
        let was_warm = warm.is_some();
        let fit_start = std::time::Instant::now();
        let km = KMeans::fit_warm(dims, &fn_points, k_discovery, warm, rng);
        let fit_us = fit_start.elapsed().as_micros() as u64;
        outcome.fit_us = fit_us;
        let centroids: Vec<f64> = (0..km.k()).flat_map(|c| km.centroid(c).to_vec()).collect();
        state.record(dims, centroids, was_warm);
        if engine.tracer().is_enabled() {
            use aide_util::trace::Value;
            engine.tracer().emit_scoped(
                "model_fit",
                vec![
                    ("model", Value::from("kmeans")),
                    ("samples", Value::from(false_negatives.len())),
                    ("clusters", Value::from(km.k())),
                    ("rebuilt", Value::from(!was_warm)),
                    ("fit_us", Value::from(fit_us)),
                ],
            );
        }
        (0..km.k())
            .filter_map(|c| {
                // Sampling area: the cluster's bounding box expanded by y
                // in each dimension (Figure 5: "within a distance y from
                // the farthest cluster member").
                km.bounding_rect(&fn_points, c).map(|bbox| {
                    (
                        bbox.expanded(y, &bounds),
                        f * km.cluster_size(c),
                        // One query covers every member of this cluster.
                        km.members(c)
                            .into_iter()
                            .map(|m| false_negatives[m])
                            .collect(),
                    )
                })
            })
            .collect()
    } else {
        // One sampling area per false negative (Figure 4).
        false_negatives
            .iter()
            .map(|&i| {
                let p = labeled.point(i);
                (Rect::from_center(p, &vec![2.0 * y; dims], &bounds), f, vec![i])
            })
            .collect()
    };

    if engine.tracer().is_enabled() {
        use aide_util::trace::Value;
        engine.tracer().emit_scoped(
            "misclass_plan",
            vec![
                ("fns", Value::from(false_negatives.len())),
                ("areas", Value::from(areas.len())),
                ("clustered", Value::from(outcome.clustered)),
                ("y", Value::from(y)),
                ("budget", Value::from(budget)),
            ],
        );
    }

    // Budget-bounded waves: each wave is the *optimistic* maximum-
    // consumption prefix of the remaining areas — assume every area
    // yields its full cap. Actual yield never exceeds the cap, so the
    // serial loop always retains at least as much budget as the optimist
    // and would have queried every wave member too: the waves issue
    // exactly the queries the serial loop issued, in the same order, with
    // zero over-query.
    //
    // Selection settles each area's take from the RNG-free candidate
    // counts (identical budget propagation to a serial loop) and then
    // selects every area in parallel on pre-split RNG streams.
    let mut remaining = budget;
    let mut next = 0;
    while remaining > 0 && next < areas.len() {
        let mut opt = remaining;
        let mut end = next;
        while end < areas.len() && opt > 0 {
            opt -= areas[end].1.min(opt);
            end += 1;
        }
        let rects: Vec<Rect> = areas[next..end].iter().map(|(r, _, _)| r.clone()).collect();
        let outputs = engine.query_batch_outputs(&rects);
        let mut wants = Vec::with_capacity(outputs.len());
        for ((_, cap, covered), out) in areas[next..end].iter().zip(&outputs) {
            let take = (*cap)
                .min(remaining)
                .min(engine.count_candidates(out, excluded));
            wants.push(take);
            remaining -= take;
            outcome.attempted.extend(covered.iter().copied());
        }
        for got in engine.select_batch_streams(&outputs, &wants, rng, excluded) {
            outcome.samples.extend(got);
        }
        next = end;
    }
    outcome.queries = engine.stats().queries - before;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_data::NumericView;
    use aide_index::IndexKind;
    use aide_util::rng::Rng;

    fn engine(n: usize, seed: u64) -> ExtractionEngine {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let data: Vec<f64> = (0..n * 2).map(|_| rng.uniform(0.0, 100.0)).collect();
        let view = NumericView::new(mapper, data, (0..n as u32).collect());
        ExtractionEngine::new(view, IndexKind::Grid)
    }

    fn labeled_with_fns(fns: &[[f64; 2]]) -> (LabeledSet, Vec<usize>) {
        let mut set = LabeledSet::new(2);
        for (i, p) in fns.iter().enumerate() {
            set.push(
                &Sample {
                    view_index: i as u32,
                    row_id: 1_000_000 + i as u32, // outside the engine's rows
                    point: p.to_vec(),
                },
                true,
            );
        }
        let indices = (0..fns.len()).collect();
        (set, indices)
    }

    #[test]
    fn per_object_sampling_stays_near_each_false_negative() {
        let mut eng = engine(50_000, 1);
        let config = SessionConfig {
            clustered_misclassified: false,
            misclass_f: 5,
            misclass_y: 3.0,
            ..SessionConfig::default()
        };
        let (labeled, fns) = labeled_with_fns(&[[20.0, 20.0], [80.0, 60.0]]);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let out = exploit_misclassified(
            &config,
            &labeled,
            &fns,
            5,
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
            &mut MisclassState::default(),
        );
        assert!(!out.clustered);
        assert_eq!(out.queries, 2, "one query per false negative");
        assert_eq!(out.attempted, vec![0, 1]);
        assert_eq!(out.samples.len(), 10);
        for s in &out.samples {
            let near_a = (s.point[0] - 20.0).abs() <= 3.0 && (s.point[1] - 20.0).abs() <= 3.0;
            let near_b = (s.point[0] - 80.0).abs() <= 3.0 && (s.point[1] - 60.0).abs() <= 3.0;
            assert!(near_a || near_b, "sample {:?} far from both FNs", s.point);
        }
    }

    #[test]
    fn clustering_reduces_queries_for_many_close_fns() {
        let mut eng = engine(50_000, 3);
        let config = SessionConfig {
            clustered_misclassified: true,
            misclass_f: 10,
            misclass_y: 2.0,
            ..SessionConfig::default()
        };
        // Eight FNs forming two tight groups; discovery found 2 relevant
        // objects ⇒ k = 2 clusters ⇒ 2 queries instead of 8.
        let fns_pts: Vec<[f64; 2]> = vec![
            [20.0, 20.0],
            [21.0, 19.5],
            [19.0, 20.5],
            [20.5, 21.0],
            [70.0, 70.0],
            [71.0, 69.0],
            [69.5, 70.5],
            [70.2, 71.0],
        ];
        let (labeled, fns) = labeled_with_fns(&fns_pts);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let out = exploit_misclassified(
            &config,
            &labeled,
            &fns,
            2,
            &[],
            200,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
            &mut MisclassState::default(),
        );
        assert!(out.clustered);
        assert_eq!(out.queries, 2, "one query per cluster");
        let mut attempted = out.attempted.clone();
        attempted.sort_unstable();
        assert_eq!(attempted, (0..8).collect::<Vec<_>>());
        assert!(!out.samples.is_empty());
        for s in &out.samples {
            let near_a = (s.point[0] - 20.0).abs() <= 5.0 && (s.point[1] - 20.0).abs() <= 5.0;
            let near_b = (s.point[0] - 70.0).abs() <= 5.0 && (s.point[1] - 70.0).abs() <= 5.0;
            assert!(near_a || near_b);
        }
    }

    #[test]
    fn clustering_skipped_when_k_not_smaller_than_fns() {
        let mut eng = engine(10_000, 5);
        let config = SessionConfig::default();
        let (labeled, fns) = labeled_with_fns(&[[30.0, 30.0], [60.0, 60.0]]);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        // k_discovery = 5 ≥ 2 FNs ⇒ per-object sampling.
        let out = exploit_misclassified(
            &config,
            &labeled,
            &fns,
            5,
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
            &mut MisclassState::default(),
        );
        assert!(!out.clustered);
        assert_eq!(out.queries, 2);
    }

    #[test]
    fn budget_caps_extraction() {
        let mut eng = engine(50_000, 7);
        let config = SessionConfig {
            clustered_misclassified: false,
            misclass_f: 25,
            ..SessionConfig::default()
        };
        let (labeled, fns) = labeled_with_fns(&[[50.0, 50.0], [55.0, 50.0], [60.0, 50.0]]);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let out = exploit_misclassified(
            &config,
            &labeled,
            &fns,
            9,
            &[],
            7,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
            &mut MisclassState::default(),
        );
        assert_eq!(out.samples.len(), 7);
        // The budget ran out on the first false negative: the other two
        // were never sampled around and must not count as attempts.
        assert_eq!(out.attempted, vec![0]);
    }

    #[test]
    fn adaptive_y_follows_region_width() {
        let fixed = SessionConfig::default();
        assert_eq!(sampling_distance(&fixed, &[]), fixed.misclass_y);
        let adaptive = SessionConfig {
            adaptive_misclass_y: true,
            ..SessionConfig::default()
        };
        // No regions yet: fall back to the static value.
        assert_eq!(sampling_distance(&adaptive, &[]), adaptive.misclass_y);
        // One 8x4 region: mean width 6 => y = 3.
        let r = Rect::new(vec![10.0, 10.0], vec![18.0, 14.0]);
        assert!((sampling_distance(&adaptive, &[r]) - 3.0).abs() < 1e-12);
        // Tiny regions clamp at 0.5; huge at 10.
        let tiny = Rect::new(vec![0.0, 0.0], vec![0.1, 0.1]);
        assert_eq!(sampling_distance(&adaptive, &[tiny]), 0.5);
        let huge = Rect::new(vec![0.0, 0.0], vec![90.0, 90.0]);
        assert_eq!(sampling_distance(&adaptive, &[huge]), 10.0);
    }

    #[test]
    fn no_false_negatives_is_a_no_op() {
        let mut eng = engine(1_000, 9);
        let config = SessionConfig::default();
        let (labeled, _) = labeled_with_fns(&[[50.0, 50.0]]);
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let out = exploit_misclassified(
            &config,
            &labeled,
            &[],
            3,
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
            &mut MisclassState::default(),
        );
        assert!(out.samples.is_empty());
        assert_eq!(out.queries, 0);
    }
}
