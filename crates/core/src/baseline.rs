//! Baseline explorers (paper §6.2, Figure 8(d,e)).
//!
//! * [`run_random`] — *Random*: each iteration shows the user a batch of
//!   uniformly random samples, then retrains the classifier;
//! * [`random_grid_config`] — *Random-Grid*: random sample selection on
//!   the exploration grid (one sample near each cell center). This equals
//!   AIDE with only the object-discovery phase enabled, which is exactly
//!   how the paper uses it in the Figure 8(f) ablation;
//! * [`random_grid_misclass_config`] — *Random-Grid + Misclassified*, the
//!   middle rung of the ablation;
//! * [`run_uncertainty`] — classical pool-based *uncertainty sampling*
//!   (§7 Related Work): each round scores a candidate pool by distance to
//!   the current decision boundary and asks the user about the most
//!   uncertain objects. The paper argues such techniques "exhaustively
//!   examine all objects in the data set" and so "cannot offer
//!   interactive performance on big data sets" — this baseline lets the
//!   `ext-uncertainty` experiment test that claim quantitatively.

use std::sync::Arc;

use aide_data::NumericView;
use aide_index::ExtractionEngine;
use aide_ml::DecisionTree;
use aide_util::geom::Rect;
use aide_util::rng::Xoshiro256pp;

use crate::config::{PhaseToggles, SessionConfig, StopCondition};
use crate::eval::evaluate_session;
use crate::labeled::LabeledSet;
use crate::session::{IterationReport, SessionResult};
use crate::target::{SimulatedUser, TargetQuery};

/// AIDE configured as the *Random-Grid* baseline: grid-based object
/// discovery only.
pub fn random_grid_config(base: &SessionConfig) -> SessionConfig {
    SessionConfig {
        phases: PhaseToggles {
            discovery: true,
            misclassified: false,
            boundary: false,
        },
        ..base.clone()
    }
}

/// AIDE with the misclassified-exploitation phase added to Random-Grid
/// (the middle variant of the Figure 8(f) ablation).
pub fn random_grid_misclass_config(base: &SessionConfig) -> SessionConfig {
    SessionConfig {
        phases: PhaseToggles {
            discovery: true,
            misclassified: true,
            boundary: false,
        },
        ..base.clone()
    }
}

/// Runs the *Random* baseline: `samples_per_iteration` uniformly random
/// samples per iteration, classifier retrained on all labels, accuracy
/// evaluated over `eval_view` — the same loop as AIDE with the strategic
/// sample selection replaced by blind random selection.
pub fn run_random(
    config: &SessionConfig,
    mut engine: ExtractionEngine,
    eval_view: Arc<NumericView>,
    target: TargetQuery,
    mut rng: Xoshiro256pp,
    stop: StopCondition,
) -> SessionResult {
    let dims = eval_view.dims();
    let full = Rect::full_domain(dims);
    let mut user = SimulatedUser::new(target);
    let mut labeled = LabeledSet::new(dims);
    let mut tree: Option<DecisionTree> = None;
    let mut history: Vec<IterationReport> = Vec::new();
    let mut last_f = (0.0, 0.0, 0.0);
    let mut stalled = 0usize;

    for iteration in 0..stop.max_iterations {
        let start = std::time::Instant::now();
        engine.reset_stats();
        let excluded = engine.exclusions(labeled.view_indices().iter().copied());
        let samples =
            engine.sample_in_excluding(&full, config.samples_per_iteration, &mut rng, &excluded);
        let mut new_samples = 0usize;
        for s in &samples {
            let label = user.label(&s.point);
            if labeled.push(s, label) {
                new_samples += 1;
            }
        }
        let fit_start = std::time::Instant::now();
        let mut model_rebuilt = None;
        if labeled.has_both_classes() {
            tree = Some(DecisionTree::fit(
                dims,
                labeled.data(),
                labeled.labels(),
                &config.tree,
            ));
            model_rebuilt = Some(true);
        }
        let model_fit = fit_start.elapsed();
        if iteration % config.eval_every.max(1) == 0 || new_samples == 0 {
            let m = evaluate_session(
                tree.as_ref(),
                &eval_view,
                &engine,
                user.target(),
                &engine.pool(),
            );
            last_f = (m.f_measure(), m.precision(), m.recall());
        }
        let num_regions = tree
            .as_ref()
            .map(|t| t.relevant_regions(&full).len())
            .unwrap_or(0);
        history.push(IterationReport {
            iteration,
            new_samples,
            discovery_samples: new_samples,
            misclass_samples: 0,
            boundary_samples: 0,
            total_labeled: labeled.len(),
            relevant_labeled: labeled.relevant_count(),
            f_measure: last_f.0,
            precision: last_f.1,
            recall: last_f.2,
            num_regions,
            duration: start.elapsed(),
            extraction: engine.stats(),
            misclass_queries: 0,
            boundary_queries: 0,
            model_fit,
            model_rebuilt,
        });
        stalled = if new_samples == 0 { stalled + 1 } else { 0 };
        if stop.target_f.is_some_and(|t| last_f.0 >= t)
            || stop.max_labels.is_some_and(|m| labeled.len() >= m)
            || stalled >= 3
        {
            break;
        }
    }
    let total_time = history.iter().map(|r| r.duration).sum();
    SessionResult {
        final_f: last_f.0,
        total_labeled: labeled.len(),
        iterations: history.len(),
        total_time,
        history,
    }
}

/// Distance from a point to the boundary of the predicted relevant set:
/// 0 on a face, growing inward and outward. Low distance = model is least
/// certain there (the L∞ margin of the rectangle union).
fn boundary_distance(point: &[f64], regions: &[Rect]) -> f64 {
    regions
        .iter()
        .map(|r| {
            let mut outside: f64 = 0.0; // L∞ distance to the rect if outside
            let mut inside = f64::INFINITY; // distance to the nearest face if inside
            for (d, &x) in point.iter().enumerate() {
                let below = r.lo(d) - x;
                let above = x - r.hi(d);
                outside = outside.max(below.max(above).max(0.0));
                inside = inside.min((x - r.lo(d)).min(r.hi(d) - x));
            }
            if outside > 0.0 {
                outside
            } else {
                inside.max(0.0)
            }
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs pool-based uncertainty sampling: each iteration scores
/// `pool_size` random candidates (the whole view when `None` — the
/// "exhaustive" form the paper's related-work section describes) by
/// [`boundary_distance`] and labels the most uncertain
/// `samples_per_iteration` of them. Before any model exists the batch is
/// random.
#[allow(clippy::too_many_arguments)]
pub fn run_uncertainty(
    config: &SessionConfig,
    mut engine: ExtractionEngine,
    eval_view: Arc<NumericView>,
    target: TargetQuery,
    mut rng: Xoshiro256pp,
    stop: StopCondition,
    pool_size: Option<usize>,
) -> SessionResult {
    let dims = eval_view.dims();
    let full = Rect::full_domain(dims);
    let mut user = SimulatedUser::new(target);
    let mut labeled = LabeledSet::new(dims);
    let mut tree: Option<DecisionTree> = None;
    let mut history: Vec<IterationReport> = Vec::new();
    let mut last_f = (0.0, 0.0, 0.0);
    let mut stalled = 0usize;

    for iteration in 0..stop.max_iterations {
        let start = std::time::Instant::now();
        engine.reset_stats();
        let batch = config.samples_per_iteration;
        let regions = tree
            .as_ref()
            .map(|t| t.relevant_regions(&full))
            .unwrap_or_default();
        let excluded = engine.exclusions(labeled.view_indices().iter().copied());
        let samples = if regions.is_empty() {
            engine.sample_in_excluding(&full, batch, &mut rng, &excluded)
        } else {
            // Score the candidate pool and keep the most uncertain batch.
            let pool = pool_size.unwrap_or(usize::MAX);
            let mut candidates = engine.sample_in_excluding(&full, pool, &mut rng, &excluded);
            candidates.sort_by(|a, b| {
                boundary_distance(&a.point, &regions)
                    .partial_cmp(&boundary_distance(&b.point, &regions))
                    .expect("finite distances")
            });
            candidates.truncate(batch);
            candidates
        };
        let mut new_samples = 0usize;
        for s in &samples {
            let label = user.label(&s.point);
            if labeled.push(s, label) {
                new_samples += 1;
            }
        }
        let fit_start = std::time::Instant::now();
        let mut model_rebuilt = None;
        if labeled.has_both_classes() {
            tree = Some(DecisionTree::fit(
                dims,
                labeled.data(),
                labeled.labels(),
                &config.tree,
            ));
            model_rebuilt = Some(true);
        }
        let model_fit = fit_start.elapsed();
        if iteration.is_multiple_of(config.eval_every.max(1)) || new_samples == 0 {
            let m = evaluate_session(
                tree.as_ref(),
                &eval_view,
                &engine,
                user.target(),
                &engine.pool(),
            );
            last_f = (m.f_measure(), m.precision(), m.recall());
        }
        let num_regions = tree
            .as_ref()
            .map(|t| t.relevant_regions(&full).len())
            .unwrap_or(0);
        history.push(IterationReport {
            iteration,
            new_samples,
            discovery_samples: new_samples,
            misclass_samples: 0,
            boundary_samples: 0,
            total_labeled: labeled.len(),
            relevant_labeled: labeled.relevant_count(),
            f_measure: last_f.0,
            precision: last_f.1,
            recall: last_f.2,
            num_regions,
            duration: start.elapsed(),
            extraction: engine.stats(),
            misclass_queries: 0,
            boundary_queries: 0,
            model_fit,
            model_rebuilt,
        });
        stalled = if new_samples == 0 { stalled + 1 } else { 0 };
        if stop.target_f.is_some_and(|t| last_f.0 >= t)
            || stop.max_labels.is_some_and(|m| labeled.len() >= m)
            || stalled >= 3
        {
            break;
        }
    }
    let total_time = history.iter().map(|r| r.duration).sum();
    SessionResult {
        final_f: last_f.0,
        total_labeled: labeled.len(),
        iterations: history.len(),
        total_time,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExplorationSession;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_index::IndexKind;
    use aide_util::rng::Rng;

    fn uniform_view(n: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let data: Vec<f64> = (0..n * 2).map(|_| rng.uniform(0.0, 100.0)).collect();
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    fn target() -> TargetQuery {
        TargetQuery::new(vec![Rect::new(vec![40.0, 55.0], vec![48.0, 63.0])])
    }

    #[test]
    fn random_baseline_makes_some_progress_eventually() {
        let view = Arc::new(uniform_view(20_000, 1));
        let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        let result = run_random(
            &SessionConfig::default(),
            engine,
            view,
            target(),
            Xoshiro256pp::seed_from_u64(2),
            StopCondition {
                target_f: Some(0.5),
                max_labels: Some(2_000),
                max_iterations: 100,
            },
        );
        // With enough random labels a large area is eventually learnable.
        assert!(result.total_labeled > 0);
        assert!(result.history.len() == result.iterations);
    }

    #[test]
    fn aide_beats_random_on_label_efficiency() {
        // The paper's headline comparison (Fig 8d): labels to reach 70 %.
        let view = Arc::new(uniform_view(20_000, 3));
        let stop = StopCondition {
            target_f: Some(0.7),
            max_labels: Some(1_500),
            max_iterations: 120,
        };
        let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        let random = run_random(
            &SessionConfig::default(),
            engine,
            Arc::clone(&view),
            target(),
            Xoshiro256pp::seed_from_u64(4),
            stop,
        );
        let mut aide = ExplorationSession::from_view(
            SessionConfig::default(),
            uniform_view(20_000, 3),
            target(),
            4,
        );
        let aide_result = aide.run(stop);
        let aide_labels = aide_result
            .labels_to_reach(0.7)
            .unwrap_or(aide_result.total_labeled + 10_000);
        let random_labels = random
            .labels_to_reach(0.7)
            .unwrap_or(random.total_labeled + 10_000);
        assert!(
            aide_labels < random_labels,
            "AIDE {aide_labels} labels vs Random {random_labels}"
        );
    }

    #[test]
    fn boundary_distance_is_a_margin() {
        let regions = vec![Rect::new(vec![40.0, 40.0], vec![50.0, 50.0])];
        // On a face: zero.
        assert_eq!(boundary_distance(&[40.0, 45.0], &regions), 0.0);
        // Inside: distance to the nearest face.
        assert_eq!(boundary_distance(&[44.0, 45.0], &regions), 4.0);
        // Outside: L-infinity distance to the rect.
        assert_eq!(boundary_distance(&[60.0, 45.0], &regions), 10.0);
        assert_eq!(boundary_distance(&[60.0, 60.0], &regions), 10.0);
        // Multiple regions: the nearest wins.
        let two = vec![
            Rect::new(vec![40.0, 40.0], vec![50.0, 50.0]),
            Rect::new(vec![0.0, 0.0], vec![4.0, 4.0]),
        ];
        assert_eq!(boundary_distance(&[5.0, 2.0], &two), 1.0);
    }

    #[test]
    fn uncertainty_sampling_learns_but_scans_the_pool() {
        let view = Arc::new(uniform_view(20_000, 5));
        let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        let stop = StopCondition {
            target_f: Some(0.7),
            max_labels: Some(2_000),
            max_iterations: 150,
        };
        let result = run_uncertainty(
            &SessionConfig::default(),
            engine,
            Arc::clone(&view),
            target(),
            Xoshiro256pp::seed_from_u64(6),
            stop,
            None, // exhaustive pool, as the paper's related work describes
        );
        // Once the area is found, boundary-focused batches refine it.
        assert!(result.total_labeled > 0);
        // The exhaustive pool means every modeled iteration returned the
        // whole view from the extraction engine.
        let scanned: u64 = result
            .history
            .iter()
            .map(|r| r.extraction.tuples_returned)
            .sum();
        assert!(
            scanned >= (view.len() as u64) * (result.iterations as u64 / 2),
            "pool scans too small: {scanned}"
        );
    }

    #[test]
    fn ablation_configs_toggle_phases() {
        let base = SessionConfig::default();
        let grid = random_grid_config(&base);
        assert!(grid.phases.discovery);
        assert!(!grid.phases.misclassified);
        assert!(!grid.phases.boundary);
        let mid = random_grid_misclass_config(&base);
        assert!(mid.phases.misclassified);
        assert!(!mid.phases.boundary);
    }
}
