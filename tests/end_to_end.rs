//! Cross-crate integration tests: the full explore-by-example pipeline
//! from synthetic database to predicted SQL query.

use std::sync::Arc;

use aide::core::{
    evaluate_model_with, DiscoveryStrategy, ExplorationSession, SessionConfig, SizeClass,
    StopCondition, TargetQuery,
};
use aide::data::sdss_like;
use aide::index::{ExtractionEngine, IndexKind};
use aide::util::par::Pool;
use aide::util::rng::Xoshiro256pp;

fn sdss(rows: usize, seed: u64) -> aide::data::Table {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    sdss_like(rows).generate(&mut rng)
}

#[test]
fn steering_converges_and_the_predicted_query_retrieves_the_targets() {
    let table = sdss(60_000, 1);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let mut rng = Xoshiro256pp::seed_from_u64(2);
    let target = TargetQuery::generate(&view, 1, SizeClass::Large, 2, &mut rng);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target.clone(),
        Xoshiro256pp::seed_from_u64(3),
    );
    let result = session.run(StopCondition {
        target_f: Some(0.8),
        max_labels: Some(1_000),
        max_iterations: 100,
    });
    assert!(result.final_f >= 0.8, "F = {}", result.final_f);

    // The predicted SQL retrieves mostly target tuples.
    let query = session.predicted_selection(table.name());
    let retrieved = query.evaluate(&table).unwrap();
    assert!(!retrieved.is_empty());
    let hits = retrieved
        .iter()
        .filter(|&&row| target.contains(&view.point_vec(row)))
        .count();
    let precision = hits as f64 / retrieved.len() as f64;
    assert!(precision > 0.7, "SQL precision {precision}");
    let recall = hits as f64 / target.count_relevant(&view) as f64;
    assert!(recall > 0.6, "SQL recall {recall}");
}

#[test]
fn sampled_replica_exploration_matches_full_dataset_accuracy() {
    // The §5.2 optimization: extract from a 10% sample, evaluate on the
    // full data. Accuracy must be in the same ballpark.
    let table = sdss(80_000, 4);
    let attrs = ["rowc", "colc"];
    let full = Arc::new(table.numeric_view(&attrs).unwrap());
    let domains: Vec<_> = attrs.iter().map(|a| table.domain(a).unwrap()).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(5);
    let replica = table.sample_fraction(0.1, &mut rng);
    let sampled = Arc::new(replica.numeric_view_with_domains(&attrs, domains).unwrap());
    let target = TargetQuery::generate(&full, 1, SizeClass::Large, 2, &mut rng);
    let stop = StopCondition {
        target_f: None,
        max_labels: Some(400),
        max_iterations: 40,
    };
    let run = |sample_view: &Arc<aide::data::NumericView>, seed: u64| {
        let engine = ExtractionEngine::from_arc(Arc::clone(sample_view), IndexKind::Grid);
        let mut s = ExplorationSession::new(
            SessionConfig::default(),
            engine,
            Arc::clone(&full),
            target.clone(),
            Xoshiro256pp::seed_from_u64(seed),
        );
        s.run(stop).final_f
    };
    // Average a few sessions, as the paper does (it reports ≤7% mean
    // accuracy difference over ten sessions; a single session is noisy).
    let seeds = [6u64, 7, 8];
    let f_full: f64 = seeds.iter().map(|&s| run(&full, s)).sum::<f64>() / seeds.len() as f64;
    let f_sampled: f64 = seeds.iter().map(|&s| run(&sampled, s)).sum::<f64>() / seeds.len() as f64;
    assert!(f_full > 0.6, "full-dataset runs failed to learn: {f_full}");
    assert!(
        f_sampled > 0.45,
        "sampled runs failed to learn: {f_sampled}"
    );
    assert!(
        (f_full - f_sampled).abs() < 0.3,
        "sampled {f_sampled} vs full {f_full}"
    );
}

#[test]
fn disjunctive_targets_are_learned_as_multiple_regions() {
    let table = sdss(60_000, 7);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let mut rng = Xoshiro256pp::seed_from_u64(8);
    let target = TargetQuery::generate(&view, 3, SizeClass::Large, 2, &mut rng);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target.clone(),
        Xoshiro256pp::seed_from_u64(9),
    );
    let result = session.run(StopCondition {
        target_f: Some(0.7),
        max_labels: Some(1_500),
        max_iterations: 150,
    });
    assert!(result.final_f >= 0.7, "F = {}", result.final_f);
    // The model found at least two of the three disjoint areas: distinct
    // true areas overlapped by predicted regions.
    let regions = session.relevant_regions();
    let found = target
        .areas()
        .iter()
        .filter(|a| regions.iter().any(|r| a.overlap_fraction(r) > 0.3))
        .count();
    assert!(found >= 2, "only {found} of 3 areas discovered");
    // The rendered query is a disjunction.
    let sql = session.predicted_selection(table.name()).to_sql();
    assert!(sql.contains(" OR "), "expected a disjunctive query: {sql}");
}

#[test]
fn irrelevant_attributes_are_eliminated_in_higher_dimensions() {
    // 4-D exploration, but the target constrains only dims 0 and 1: the
    // final tree should not select on the noise attributes (paper §6.3).
    let table = sdss(60_000, 10);
    let view = Arc::new(
        table
            .numeric_view(&["rowc", "colc", "ra", "field"])
            .unwrap(),
    );
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let target = TargetQuery::generate(&view, 1, SizeClass::Large, 2, &mut rng);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target,
        Xoshiro256pp::seed_from_u64(12),
    );
    let result = session.run(StopCondition {
        target_f: Some(0.7),
        max_labels: Some(1_500),
        max_iterations: 150,
    });
    assert!(result.final_f >= 0.7, "F = {}", result.final_f);
    let tree = session.tree().expect("model exists");
    let importances = tree.feature_importances();
    let signal: f64 = importances[0] + importances[1];
    assert!(
        signal > 0.9,
        "noise attributes carry weight: {importances:?}"
    );
}

#[test]
fn clustering_discovery_runs_end_to_end_on_skewed_space() {
    let table = sdss(60_000, 13);
    let view = Arc::new(table.numeric_view(&["dec", "ra"]).unwrap());
    let mut rng = Xoshiro256pp::seed_from_u64(14);
    let target = TargetQuery::generate(&view, 1, SizeClass::Large, 2, &mut rng);
    let config = SessionConfig {
        discovery_strategy: DiscoveryStrategy::Clustering,
        ..SessionConfig::default()
    };
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        config,
        engine,
        Arc::clone(&view),
        target,
        Xoshiro256pp::seed_from_u64(15),
    );
    let result = session.run(StopCondition {
        target_f: Some(0.6),
        max_labels: Some(2_000),
        max_iterations: 200,
    });
    assert!(result.final_f >= 0.6, "F = {}", result.final_f);
}

#[test]
fn warm_started_sessions_resume_instead_of_restarting() {
    // Run a session halfway, persist its labels, seed a fresh session
    // with them: the resumed session must reach the target with fewer
    // *new* labels than a cold start.
    let table = sdss(40_000, 20);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let target =
        aide::core::TargetQuery::generate(&view, 1, aide::core::SizeClass::Large, 2, &mut rng);
    let stop = StopCondition {
        target_f: Some(0.8),
        max_labels: Some(1_600),
        max_iterations: 160,
    };
    // Phase 1: explore halfway and persist.
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut first = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target.clone(),
        Xoshiro256pp::seed_from_u64(22),
    );
    for _ in 0..10 {
        first.run_iteration();
    }
    let mut saved = Vec::new();
    first.labeled().write_csv(&mut saved).unwrap();
    let labels_so_far = first.labeled().len();

    // Phase 2: resume from the saved labels.
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut resumed = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target.clone(),
        Xoshiro256pp::seed_from_u64(23),
    );
    resumed.seed_labels(aide::core::LabeledSet::read_csv(2, &saved[..]).unwrap());
    assert_eq!(resumed.labeled().len(), labels_so_far);
    let resumed_result = resumed.run(stop);

    // Cold start for comparison.
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut cold = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target,
        Xoshiro256pp::seed_from_u64(23),
    );
    let cold_result = cold.run(stop);

    assert!(
        resumed_result.final_f >= 0.8,
        "resume failed to converge (F = {} at {} labels)",
        resumed_result.final_f,
        resumed_result.total_labeled
    );
    let resumed_new = resumed_result.total_labeled - labels_so_far;
    assert!(
        resumed_new < cold_result.total_labeled,
        "resume ({resumed_new} new labels) did not beat cold start ({})",
        cold_result.total_labeled
    );
}

#[test]
fn evaluate_model_agrees_with_session_reports() {
    let table = sdss(30_000, 16);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let mut rng = Xoshiro256pp::seed_from_u64(17);
    let target = TargetQuery::generate(&view, 1, SizeClass::Large, 2, &mut rng);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        SessionConfig::default(),
        engine,
        Arc::clone(&view),
        target.clone(),
        Xoshiro256pp::seed_from_u64(18),
    );
    for _ in 0..15 {
        session.run_iteration();
    }
    let reported = session.history().last().unwrap().f_measure;
    let recomputed =
        evaluate_model_with(session.tree(), &view, &target, &Pool::from_env(0)).f_measure();
    assert!(
        (reported - recomputed).abs() < 1e-12,
        "report {reported} vs recomputed {recomputed}"
    );
}
