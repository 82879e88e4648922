//! The quality probe for workloads whose `create` carries no target.
//!
//! Without a target the server reports no F, so on those workloads the
//! benchmark measures steering quality itself, after the timed window:
//! the paper's simulated-user protocol (§6.1: batch 20, F evaluated every
//! round) runs in process for the first [`PROBE_SESSIONS`] session specs
//! of the run, over an every-k-th-row sample of the workload's dataset
//! (the paper's sampled-dataset setting, §5.2). A change that alters
//! which rows get sampled moves these numbers on every workload.

use std::sync::Arc;

use aide_core::{ExplorationSession, SessionConfig, StopCondition};
use aide_data::NumericView;
use aide_index::{ExtractionEngine, IndexKind};
use aide_util::rng::Xoshiro256pp;

use crate::analyst::F_TARGET;
use crate::report::mean;
use crate::workload::SessionSpec;

/// Sessions per probe: sixteen per (area count, size class) pair.
pub const PROBE_SESSIONS: usize = 96;
/// Rows in the probe's sample of the dataset.
const PROBE_ROWS: usize = 100_000;
const PROBE_ROUNDS: usize = 30;
const PROBE_BATCH: usize = 20;

/// Every k-th row of `view`, same attributes and domains.
fn sample(view: &NumericView) -> NumericView {
    let step = (view.len() / PROBE_ROWS).max(1);
    let picks: Vec<usize> = (0..view.len()).step_by(step).take(PROBE_ROWS).collect();
    let lanes = (0..view.dims())
        .map(|d| picks.iter().map(|&i| view.coord(i, d)).collect())
        .collect();
    let rows = picks.iter().map(|&i| view.row_id(i)).collect();
    NumericView::from_lanes(view.mapper().clone(), lanes, rows)
}

/// `(final_f_mean, labels_to_f70_mean)` over the probe sessions. The
/// sessions are independent, so two threads split them; the result does
/// not depend on the split.
pub fn probe(view: &NumericView, specs: &[SessionSpec]) -> (f64, f64) {
    let sample = Arc::new(sample(view));
    let specs = &specs[..PROBE_SESSIONS.min(specs.len())];
    let outcomes: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let sample = Arc::clone(&sample);
                scope.spawn(move || {
                    specs
                        .iter()
                        .skip(t)
                        .step_by(2)
                        .map(|spec| probe_session(&sample, spec))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let finals: Vec<f64> = outcomes.iter().map(|o| o.0).collect();
    let labels: Vec<f64> = outcomes.iter().map(|o| o.1).collect();
    (mean(&finals), mean(&labels))
}

/// One probe session: `(final F, labels until F first reached 0.7)`.
fn probe_session(sample: &Arc<NumericView>, spec: &SessionSpec) -> (f64, f64) {
    let cap = PROBE_ROUNDS * PROBE_BATCH;
    let config = SessionConfig {
        samples_per_iteration: PROBE_BATCH,
        threads: 1,
        ..SessionConfig::default()
    };
    let engine = ExtractionEngine::from_arc(Arc::clone(sample), IndexKind::Grid);
    let mut session = ExplorationSession::new(
        config,
        engine,
        Arc::clone(sample),
        spec.target.clone(),
        Xoshiro256pp::seed_from_u64(spec.seed),
    );
    let result = session.run(StopCondition {
        target_f: None,
        max_labels: None,
        max_iterations: PROBE_ROUNDS,
    });
    (
        result.final_f,
        result.labels_to_reach(F_TARGET).unwrap_or(cap) as f64,
    )
}
