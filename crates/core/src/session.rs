//! The AIDE exploration session: the iterative steering loop of Figure 1.
//!
//! Each iteration (paper §2.1):
//!
//! 1. *Space exploration* — the three phases propose sampling areas and
//!    extract a budgeted set of new sample objects (§6.2 runs 20 per
//!    iteration: the misclassified and boundary phases take what they
//!    need, discovery spends the remainder on unexplored cells);
//! 2. *Sample review* — the (simulated) user labels each object;
//! 3. *Data classification* — a CART tree is retrained on all labels;
//! 4. *Query formulation* — the tree's relevant leaves become the current
//!    predicted extraction query, whose F-measure over the full data
//!    space is the session's accuracy.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_data::NumericView;
use aide_index::{ExtractionEngine, ExtractionStats, IndexKind, Sample};
use aide_ml::{DecisionTree, IncrementalTree, RefitOutcome};
use aide_query::Selection;
use aide_util::geom::Rect;
use aide_util::par::{take_chunk_stats, Pool};
use aide_util::rng::Xoshiro256pp;
use aide_util::trace::Value;

use crate::boundary::exploit_boundaries;
use crate::config::{SessionConfig, StopCondition};
use crate::discovery::DiscoveryPhase;
use crate::eval::{eval_index, evaluate_model_traced};
use crate::labeled::LabeledSet;
use crate::misclassified::exploit_misclassified;
use crate::model_state::MisclassState;
use crate::oracle::RelevanceOracle;
use crate::target::{SimulatedUser, TargetQuery};

/// Everything measured in one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    /// 0-based iteration number.
    pub iteration: usize,
    /// Newly labeled samples this iteration.
    pub new_samples: usize,
    /// ... of which came from object discovery.
    pub discovery_samples: usize,
    /// ... of which came from misclassified exploitation.
    pub misclass_samples: usize,
    /// ... of which came from boundary exploitation.
    pub boundary_samples: usize,
    /// Total labels so far (the user-effort metric).
    pub total_labeled: usize,
    /// Relevant labels so far.
    pub relevant_labeled: usize,
    /// F-measure of the current model over the evaluation view.
    pub f_measure: f64,
    /// Precision of the current model.
    pub precision: f64,
    /// Recall of the current model.
    pub recall: f64,
    /// Relevant areas in the current model.
    pub num_regions: usize,
    /// System execution time of this iteration (the user wait time).
    pub duration: Duration,
    /// Extraction-engine costs of this iteration.
    pub extraction: ExtractionStats,
    /// Extraction queries issued by the misclassified phase alone (its
    /// cost driver — one per sampling area, §4.2).
    pub misclass_queries: u64,
    /// Extraction queries issued by the boundary phase alone.
    pub boundary_queries: u64,
    /// Wall-clock spent fitting models this iteration: the CART retrain
    /// plus the misclassified phase's false-negative k-means.
    pub model_fit: Duration,
    /// Whether the CART retrain was a full from-scratch rebuild (`Some
    /// (false)` = incremental refit; `None` = no tree was fitted, e.g.
    /// only one class labeled so far).
    pub model_rebuilt: Option<bool>,
}

/// Summary of a finished exploration run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Per-iteration trace.
    pub history: Vec<IterationReport>,
    /// Final F-measure.
    pub final_f: f64,
    /// Total labeled samples (user effort).
    pub total_labeled: usize,
    /// Iterations executed.
    pub iterations: usize,
    /// Total system execution time.
    pub total_time: Duration,
}

impl SessionResult {
    /// Labels needed to first reach F-measure `f`, if it was reached.
    pub fn labels_to_reach(&self, f: f64) -> Option<usize> {
        self.history
            .iter()
            .find(|r| r.f_measure >= f)
            .map(|r| r.total_labeled)
    }

    /// Mean iteration duration (the paper's "user wait time per
    /// iteration").
    pub fn mean_iteration_time(&self) -> Duration {
        if self.history.is_empty() {
            return Duration::ZERO;
        }
        self.total_time / self.history.len() as u32
    }

    /// Extraction costs summed over every iteration: total queries,
    /// tuples examined/returned, cache hits/misses, engine wall-clock and
    /// selection wall-clock.
    pub fn extraction_totals(&self) -> ExtractionStats {
        let mut total = ExtractionStats::default();
        for r in &self.history {
            total.queries += r.extraction.queries;
            total.tuples_examined += r.extraction.tuples_examined;
            total.tuples_returned += r.extraction.tuples_returned;
            total.cache_hits += r.extraction.cache_hits;
            total.cache_misses += r.extraction.cache_misses;
            total.elapsed += r.extraction.elapsed;
            total.select += r.extraction.select;
        }
        total
    }

    /// Total model-fitting wall-clock over the session (CART retrains
    /// plus misclassified-phase k-means fits).
    pub fn model_fit_total(&self) -> Duration {
        self.history.iter().map(|r| r.model_fit).sum()
    }

    /// `(incremental, rebuilds)`: how many iterations refitted the CART
    /// model incrementally versus rebuilding it from scratch.
    pub fn model_fit_counts(&self) -> (usize, usize) {
        let incremental = self
            .history
            .iter()
            .filter(|r| r.model_rebuilt == Some(false))
            .count();
        let rebuilds = self
            .history
            .iter()
            .filter(|r| r.model_rebuilt == Some(true))
            .count();
        (incremental, rebuilds)
    }

    /// Two-line cost report for session summaries: extraction costs with
    /// the region-cache hit rate (hits / (hits + misses); 0 when the
    /// session issued no extraction query), then model-maintenance
    /// costs — the model-fit share of total iteration time and the
    /// incremental-refit vs full-rebuild split of the CART retrains.
    pub fn cost_summary(&self) -> String {
        let t = self.extraction_totals();
        let lookups = t.cache_hits + t.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            100.0 * t.cache_hits as f64 / lookups as f64
        };
        let fit = self.model_fit_total();
        let share = if self.total_time.is_zero() {
            0.0
        } else {
            100.0 * fit.as_secs_f64() / self.total_time.as_secs_f64()
        };
        let (incremental, rebuilds) = self.model_fit_counts();
        format!(
            "extraction: {} queries, {} tuples examined, {} returned, \
             cache {} hits / {} misses ({:.1}% hit rate), {:.1?} in engine\n\
             model fit: {:.1?} ({:.1}% of iteration time), {} incremental refit{} / {} full rebuild{}",
            t.queries,
            t.tuples_examined,
            t.tuples_returned,
            t.cache_hits,
            t.cache_misses,
            hit_rate,
            t.elapsed,
            fit,
            share,
            incremental,
            if incremental == 1 { "" } else { "s" },
            rebuilds,
            if rebuilds == 1 { "" } else { "s" },
        )
    }
}

/// A proposed-but-not-yet-labeled iteration: the phase outputs of
/// [`ExplorationSession::propose_iteration`], parked until labels arrive
/// through [`ExplorationSession::complete_iteration`]. This is what lets
/// a server detach the (remote, slow) user review from the (local, fast)
/// phase machinery without perturbing the single-call
/// [`ExplorationSession::run_iteration`] path bit-for-bit.
struct PendingBatch {
    proposals: Vec<(Sample, Option<u64>, Phase)>,
    misclass_queries: u64,
    boundary_queries: u64,
    /// Microseconds the misclassified phase spent fitting its k-means
    /// model, folded into the eventual report's `model_fit`.
    misclass_fit_us: u64,
    /// Wall-clock spent inside `propose_iteration`; the eventual report's
    /// `duration` adds the completion time but **not** the user's think
    /// time in between.
    propose_elapsed: Duration,
}

/// An in-progress AIDE exploration.
pub struct ExplorationSession {
    config: SessionConfig,
    engine: ExtractionEngine,
    eval_view: Arc<NumericView>,
    oracle: Box<dyn RelevanceOracle + Send>,
    pending: Option<PendingBatch>,
    ground_truth: Option<TargetQuery>,
    labeled: LabeledSet,
    tree: Option<DecisionTree>,
    /// Incremental CART state: owns a copy of the training rows fitted
    /// so far, so each retrain absorbs only the labels appended since
    /// the previous one. `tree` is always its compiled snapshot once a
    /// model exists — bit-identical to a cold fit over all labels.
    fitter: Option<IncrementalTree>,
    /// Warm-start centroids for the misclassified phase's k-means.
    misclass_state: MisclassState,
    discovery: DiscoveryPhase,
    discovered_relevant: usize,
    fn_attempts: std::collections::HashMap<u32, u32>,
    prev_regions: Vec<Rect>,
    prev_slabs: Vec<Rect>,
    rng: Xoshiro256pp,
    iteration: usize,
    history: Vec<IterationReport>,
    last_eval: (f64, f64, f64),
    /// Whether `last_eval` measures the *current* tree. `eval_every > 1`
    /// lets iterations skip the full-view evaluation; any consumer that
    /// acts on the F-measure (a `target_f` stop check, the final result)
    /// must call `refresh_eval` first instead of trusting a stale triple.
    eval_fresh: bool,
    pool: Pool,
    /// Session construction time — the `session_end` trace event reports
    /// the session's lifetime against this epoch.
    started: Instant,
    /// Whether `session_end` has been emitted (guards double emission
    /// when `run` and `finish_trace` are both called).
    trace_finished: bool,
}

impl std::fmt::Debug for ExplorationSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplorationSession")
            .field("iteration", &self.iteration)
            .field("labeled", &self.labeled.len())
            .field("f", &self.last_eval.0)
            .finish()
    }
}

impl ExplorationSession {
    /// Creates a session that samples from `engine`, evaluates accuracy
    /// over `eval_view` (the full dataset — these differ when the
    /// sampled-dataset optimization is active), and simulates the user
    /// with `target` (the paper's evaluation setup, §6.1).
    pub fn new(
        config: SessionConfig,
        engine: ExtractionEngine,
        eval_view: Arc<NumericView>,
        target: TargetQuery,
        rng: Xoshiro256pp,
    ) -> Self {
        assert_eq!(target.dims(), eval_view.dims(), "target dimensionality");
        let truth = target.clone();
        Self::with_oracle(
            config,
            engine,
            eval_view,
            Box::new(SimulatedUser::new(target)),
            Some(truth),
            rng,
        )
    }

    /// Creates a session driven by an arbitrary [`RelevanceOracle`] — the
    /// deployment form where a real user answers. Pass `ground_truth`
    /// when a reference interest exists (accuracy is then evaluated per
    /// iteration); without one the F-measure fields of the reports stay 0
    /// and stopping is driven by labels/iterations only.
    pub fn with_oracle(
        config: SessionConfig,
        mut engine: ExtractionEngine,
        eval_view: Arc<NumericView>,
        oracle: Box<dyn RelevanceOracle + Send>,
        ground_truth: Option<TargetQuery>,
        mut rng: Xoshiro256pp,
    ) -> Self {
        assert_eq!(
            engine.view().dims(),
            eval_view.dims(),
            "engine and evaluation views must share dimensionality"
        );
        if let Some(t) = &ground_truth {
            assert_eq!(t.dims(), eval_view.dims(), "ground-truth dimensionality");
        }
        let discovery = DiscoveryPhase::new(&config, &engine, &mut rng);
        let dims = engine.view().dims();
        let pool = Pool::from_env(config.threads);
        // The engine shares the session pool for its batch passes, and the
        // session's tracer receives the engine's per-wave events.
        engine.set_pool(pool);
        engine.set_tracer(config.tracer.clone());
        if config.tracer.is_enabled() {
            // Construction work (index build, discovery k-means) happened
            // before the session span: clear the chunk counters so the
            // first iteration's pool event covers only its own work.
            let _ = take_chunk_stats();
            let strategy = format!("{:?}", config.discovery_strategy).to_lowercase();
            let index = format!("{:?}", engine.kind()).to_lowercase();
            config.tracer.emit(
                "session_start",
                vec![
                    ("rows", Value::from(engine.view().len())),
                    ("eval_rows", Value::from(eval_view.len())),
                    ("dims", Value::from(dims)),
                    ("samples_per_iteration", Value::from(config.samples_per_iteration)),
                    ("strategy", Value::from(strategy)),
                    ("index", Value::from(index)),
                    ("eval_every", Value::from(config.eval_every)),
                ],
            );
        }
        Self {
            config,
            engine,
            eval_view,
            oracle,
            pending: None,
            ground_truth,
            labeled: LabeledSet::new(dims),
            tree: None,
            fitter: None,
            misclass_state: MisclassState::default(),
            discovery,
            discovered_relevant: 0,
            fn_attempts: std::collections::HashMap::new(),
            prev_regions: Vec::new(),
            prev_slabs: Vec::new(),
            rng,
            iteration: 0,
            history: Vec::new(),
            last_eval: (0.0, 0.0, 0.0),
            eval_fresh: true,
            pool,
            started: Instant::now(),
            trace_finished: false,
        }
    }

    /// Convenience constructor: a grid-indexed engine over `view`, with
    /// the same view used for evaluation.
    pub fn from_view(
        config: SessionConfig,
        view: NumericView,
        target: TargetQuery,
        seed: u64,
    ) -> Self {
        let view = Arc::new(view);
        let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        Self::new(
            config,
            engine,
            view,
            target,
            Xoshiro256pp::seed_from_u64(seed),
        )
    }

    /// The current decision tree, if one has been trained.
    pub fn tree(&self) -> Option<&DecisionTree> {
        self.tree.as_ref()
    }

    /// The accumulated labeled set.
    pub fn labeled(&self) -> &LabeledSet {
        &self.labeled
    }

    /// Objects the oracle has reviewed so far (the user-effort metric).
    pub fn reviewed(&self) -> usize {
        self.oracle.reviewed()
    }

    /// The reference interest used for accuracy evaluation, if any.
    pub fn ground_truth(&self) -> Option<&TargetQuery> {
        self.ground_truth.as_ref()
    }

    /// Per-iteration reports so far.
    pub fn history(&self) -> &[IterationReport] {
        &self.history
    }

    /// The current model's relevant areas in normalized coordinates.
    pub fn relevant_regions(&self) -> Vec<Rect> {
        let dims = self.eval_view.dims();
        self.tree
            .as_ref()
            .map(|t| t.relevant_regions(&Rect::full_domain(dims)))
            .unwrap_or_default()
    }

    /// Translates the current model into the predicted data-extraction
    /// query over `table_name`, in raw attribute coordinates (paper §2.2).
    pub fn predicted_selection(&self, table_name: &str) -> Selection {
        let mapper = self.eval_view.mapper();
        let raw_rects: Vec<Rect> = self
            .relevant_regions()
            .iter()
            .map(|r| mapper.denormalize_rect(r))
            .collect();
        Selection::from_regions(table_name, mapper.attrs(), mapper.domains(), &raw_rects)
    }

    /// Warm-starts the session with labels from a previous run (see
    /// [`LabeledSet::write_csv`]): the model is trained on them before
    /// the first iteration, so steering resumes instead of restarting.
    ///
    /// # Panics
    ///
    /// Panics if iterations have already run or the dimensionalities
    /// disagree.
    pub fn seed_labels(&mut self, labels: LabeledSet) {
        assert_eq!(self.iteration, 0, "seed_labels must precede iterations");
        assert_eq!(
            labels.dims(),
            self.labeled.dims(),
            "dimensionality mismatch"
        );
        self.labeled = labels;
        self.labeled.bind_view(self.engine.view());
        self.fitter = None;
        if self.labeled.has_both_classes() {
            self.refit_tree();
            self.eval_fresh = false;
        }
    }

    /// (Re)fits the classifier over the labeled set — incrementally when
    /// a fitted model already covers a prefix of it. The session's
    /// [`IncrementalTree`] owns a mirror of the (append-only) labeled
    /// rows, so each retrain routes only the labels added since the
    /// previous one down the existing tree; the compiled tree is
    /// bit-identical to a cold [`DecisionTree::fit_with`] over all
    /// labels, so this changes per-iteration cost, never behavior.
    fn refit_tree(&mut self) -> RefitOutcome {
        let dims = self.labeled.dims();
        let outcome = match self.fitter.as_mut() {
            Some(fitter) => {
                let fitted = fitter.samples();
                debug_assert!(fitted <= self.labeled.len(), "labeled set shrank");
                fitter.refit_with(
                    &self.labeled.data()[fitted * dims..],
                    &self.labeled.labels()[fitted..],
                    &self.pool,
                )
            }
            None => {
                let fitter = IncrementalTree::fit_with(
                    dims,
                    self.labeled.data(),
                    self.labeled.labels(),
                    &self.config.tree,
                    &self.pool,
                );
                let leaves = fitter.tree().num_leaves();
                self.fitter = Some(fitter);
                RefitOutcome {
                    rebuilt: true,
                    leaves_touched: leaves,
                }
            }
        };
        self.tree = Some(self.fitter.as_ref().expect("fitter just set").tree().clone());
        outcome
    }

    /// Runs one steering iteration and returns its report.
    ///
    /// Equivalent to [`ExplorationSession::propose_iteration`] followed by
    /// labeling every proposal with the session's oracle and
    /// [`ExplorationSession::complete_iteration`] — bit-for-bit: the
    /// oracle is consulted once per proposal in proposal order and no
    /// session randomness is consumed in between.
    ///
    /// # Panics
    ///
    /// Panics if a proposed batch is pending (label or abandon it first).
    pub fn run_iteration(&mut self) -> &IterationReport {
        let samples = self.propose_iteration();
        let labels: Vec<bool> = samples.iter().map(|s| self.oracle.label(s)).collect();
        self.complete_iteration(&labels)
    }

    /// Number of proposals awaiting labels, when a batch is pending.
    pub fn pending_len(&self) -> Option<usize> {
        self.pending.as_ref().map(|p| p.proposals.len())
    }

    /// Runs the space-exploration half of one iteration — the three
    /// phases propose and extract sample objects — and parks the batch
    /// until labels arrive. Returns the proposals in labeling order
    /// (duplicates across phases included: the reviewer sees exactly what
    /// the serial loop's oracle would have seen).
    ///
    /// This is the server's request path: `propose` answers a `create` or
    /// `label` request with objects to review, the analyst labels them at
    /// human speed, and [`ExplorationSession::complete_iteration`] folds
    /// the verdicts back in.
    ///
    /// # Panics
    ///
    /// Panics if a proposed batch is already pending.
    pub fn propose_iteration(&mut self) -> Vec<Sample> {
        assert!(
            self.pending.is_none(),
            "a proposed batch is pending; complete or abandon it first"
        );
        let start = Instant::now();
        self.engine.reset_stats();
        // A cheap handle (one Option<Arc> clone) so emissions below don't
        // fight the borrow checker over `self.config` vs `self.engine`.
        let tracer = self.config.tracer.clone();
        tracer.begin_iteration(self.iteration as u64);
        let budget = self.config.samples_per_iteration;
        let mut remaining = budget;
        let mut proposals: Vec<(Sample, Option<u64>, Phase)> = Vec::with_capacity(budget);
        // Labels only change in `complete_iteration`, so every phase of
        // this round skips the same rows.
        let excluded = self
            .engine
            .exclusions(self.labeled.view_indices().iter().copied());
        let select_us = |engine: &ExtractionEngine, before: Duration| {
            (engine.stats().select - before).as_micros() as u64
        };

        // Phases 2 and 3 use the model from the previous iteration; in the
        // first iteration only object discovery runs (paper §3).
        let mut boundary_slabs = Vec::new();
        let mut misclass_queries = 0u64;
        let mut boundary_queries = 0u64;
        let mut misclass_fit_us = 0u64;
        if let Some(tree) = &self.tree {
            let dims = self.eval_view.dims();
            let regions = tree.relevant_regions(&Rect::full_domain(dims));
            if self.config.phases.misclassified && remaining > 0 {
                tracer.begin_phase("misclassified");
                let phase_start = Instant::now();
                let select_before = self.engine.stats().select;
                // Retire false negatives that repeated exploitation could
                // not develop into areas: with a noisy oracle they are
                // almost surely flipped labels, and sampling around them
                // again would burn the iteration budget for nothing.
                let limit = self.config.misclass_retire_after;
                let fns: Vec<usize> = self
                    .labeled
                    .false_negatives(tree)
                    .into_iter()
                    .filter(|&i| {
                        let row = self.labeled.row_id(i);
                        (self.fn_attempts.get(&row).copied().unwrap_or(0) as usize) < limit
                    })
                    .collect();
                let misclass_budget = ((remaining as f64
                    * self.config.misclass_budget_fraction.clamp(0.0, 1.0))
                .round() as usize)
                    .min(remaining);
                let out = exploit_misclassified(
                    &self.config,
                    &self.labeled,
                    &fns,
                    self.discovered_relevant,
                    &regions,
                    misclass_budget,
                    &mut self.engine,
                    &excluded,
                    &mut self.rng,
                    &mut self.misclass_state,
                );
                // Only the false negatives the phase actually sampled
                // around count as attempts — a budget-truncated round must
                // not retire objects it never reached.
                for &i in &out.attempted {
                    let row = self.labeled.row_id(i);
                    *self.fn_attempts.entry(row).or_insert(0) += 1;
                }
                let taken = out.samples.len();
                remaining -= taken;
                misclass_queries = out.queries;
                misclass_fit_us = out.fit_us;
                proposals.extend(
                    out.samples
                        .into_iter()
                        .map(|s| (s, None, Phase::Misclassified)),
                );
                tracer.end_phase(
                    taken as u64,
                    misclass_queries,
                    select_us(&self.engine, select_before),
                    phase_start.elapsed().as_micros() as u64,
                );
            }
            if self.config.phases.boundary && remaining > 0 {
                tracer.begin_phase("boundary");
                let phase_start = Instant::now();
                let select_before = self.engine.stats().select;
                let out = exploit_boundaries(
                    &self.config,
                    &regions,
                    &self.prev_regions,
                    &self.prev_slabs,
                    remaining,
                    &mut self.engine,
                    &excluded,
                    &mut self.rng,
                );
                let taken = out.samples.len();
                remaining -= taken;
                boundary_queries = out.queries;
                boundary_slabs = out.slabs;
                proposals.extend(out.samples.into_iter().map(|s| (s, None, Phase::Boundary)));
                tracer.end_phase(
                    taken as u64,
                    boundary_queries,
                    select_us(&self.engine, select_before),
                    phase_start.elapsed().as_micros() as u64,
                );
            }
            self.prev_regions = regions;
        }
        if self.config.phases.discovery && remaining > 0 {
            tracer.begin_phase("discovery");
            let phase_start = Instant::now();
            let queries_before = self.engine.stats().queries;
            let select_before = self.engine.stats().select;
            let disc =
                self.discovery
                    .propose(remaining, &mut self.engine, &excluded, &mut self.rng);
            let discovery_queries = self.engine.stats().queries - queries_before;
            let taken = disc.len();
            proposals.extend(
                disc.into_iter()
                    .map(|p| (p.sample, p.token, Phase::Discovery)),
            );
            tracer.end_phase(
                taken as u64,
                discovery_queries,
                select_us(&self.engine, select_before),
                phase_start.elapsed().as_micros() as u64,
            );
        }
        self.prev_slabs = boundary_slabs;
        let samples: Vec<Sample> = proposals.iter().map(|(s, _, _)| s.clone()).collect();
        self.pending = Some(PendingBatch {
            proposals,
            misclass_queries,
            boundary_queries,
            misclass_fit_us,
            propose_elapsed: start.elapsed(),
        });
        samples
    }

    /// Folds the reviewer's verdicts into the pending batch — one label
    /// per proposal, in proposal order — then retrains the classifier,
    /// evaluates when due, and closes the iteration with its report.
    ///
    /// # Panics
    ///
    /// Panics if no batch is pending or `labels` does not match the
    /// pending proposal count (guard with
    /// [`ExplorationSession::pending_len`] when the labels come off a
    /// wire).
    pub fn complete_iteration(&mut self, labels: &[bool]) -> &IterationReport {
        let pending = self
            .pending
            .take()
            .expect("complete_iteration without a pending proposal batch");
        assert_eq!(
            labels.len(),
            pending.proposals.len(),
            "one label per pending proposal"
        );
        let start = Instant::now();
        let tracer = self.config.tracer.clone();
        let PendingBatch {
            proposals,
            misclass_queries,
            boundary_queries,
            misclass_fit_us,
            propose_elapsed,
        } = pending;

        // --- The user reviewed and labeled the new samples ---------------
        let mut counts = [0usize; 3];
        for ((sample, token, phase), &label) in proposals.into_iter().zip(labels) {
            if !self.labeled.push(&sample, label) {
                continue; // duplicate within this iteration's areas
            }
            counts[phase as usize] += 1;
            if phase == Phase::Discovery {
                if label {
                    self.discovered_relevant += 1;
                }
                if let Some(token) = token {
                    self.discovery.feedback(token, label);
                }
            }
        }
        let new_samples = counts.iter().sum::<usize>();

        // --- Retrain the classifier on all labels ------------------------
        let mut model_fit = Duration::from_micros(misclass_fit_us);
        let mut model_rebuilt = None;
        if self.labeled.has_both_classes() {
            let fit_start = Instant::now();
            let refit = self.refit_tree();
            let fit = fit_start.elapsed();
            model_fit += fit;
            model_rebuilt = Some(refit.rebuilt);
            if tracer.is_enabled() {
                tracer.emit_scoped(
                    "model_fit",
                    vec![
                        ("model", Value::from("cart")),
                        ("samples", Value::from(self.labeled.len())),
                        ("leaves", Value::from(refit.leaves_touched)),
                        ("rebuilt", Value::from(refit.rebuilt)),
                        ("fit_us", Value::from(fit.as_micros() as u64)),
                    ],
                );
            }
        }

        // --- Evaluate over the full data space ----------------------------
        if let Some(truth) = &self.ground_truth {
            if self.iteration.is_multiple_of(self.config.eval_every.max(1)) || new_samples == 0 {
                let m = evaluate_model_traced(
                    self.tree.as_ref(),
                    &self.eval_view,
                    eval_index(&self.engine, &self.eval_view),
                    truth,
                    &self.pool,
                    &tracer,
                );
                self.last_eval = (m.f_measure(), m.precision(), m.recall());
                self.eval_fresh = true;
            } else {
                self.eval_fresh = false;
            }
        }
        let (f, p, r) = self.last_eval;
        let num_regions = self.relevant_regions().len();
        let duration = propose_elapsed + start.elapsed();

        if tracer.is_enabled() {
            let (calls, chunks) = take_chunk_stats();
            tracer.emit_scoped(
                "pool",
                vec![("calls", Value::from(calls)), ("chunks", Value::from(chunks))],
            );
            let stats = self.engine.stats();
            tracer.emit_scoped(
                "iter_end",
                vec![
                    ("new_samples", Value::from(new_samples)),
                    ("discovery_samples", Value::from(counts[Phase::Discovery as usize])),
                    ("misclass_samples", Value::from(counts[Phase::Misclassified as usize])),
                    ("boundary_samples", Value::from(counts[Phase::Boundary as usize])),
                    ("total_labeled", Value::from(self.labeled.len())),
                    ("relevant_labeled", Value::from(self.labeled.relevant_count())),
                    ("num_regions", Value::from(num_regions)),
                    ("queries", Value::from(stats.queries)),
                    ("tuples_examined", Value::from(stats.tuples_examined)),
                    ("tuples_returned", Value::from(stats.tuples_returned)),
                    ("cache_hits", Value::from(stats.cache_hits)),
                    ("cache_misses", Value::from(stats.cache_misses)),
                    ("cached_regions", Value::from(self.engine.cached_regions())),
                    ("dur_us", Value::from(duration.as_micros() as u64)),
                ],
            );
        }

        let report = IterationReport {
            iteration: self.iteration,
            new_samples,
            discovery_samples: counts[Phase::Discovery as usize],
            misclass_samples: counts[Phase::Misclassified as usize],
            boundary_samples: counts[Phase::Boundary as usize],
            total_labeled: self.labeled.len(),
            relevant_labeled: self.labeled.relevant_count(),
            f_measure: f,
            precision: p,
            recall: r,
            num_regions,
            duration,
            extraction: self.engine.stats(),
            misclass_queries,
            boundary_queries,
            model_fit,
            model_rebuilt,
        };
        self.iteration += 1;
        self.history.push(report);
        self.history.last().expect("just pushed")
    }

    /// Drops a pending proposal batch without labels — the reviewer went
    /// away (a server session closing or being evicted mid-review). The
    /// iteration still closes: its report records the extraction costs
    /// the phases already paid with zero new samples, and the trace's
    /// iteration span ends so the stream stays structurally valid. The
    /// model, the labeled set and the evaluation are untouched. No-op
    /// when nothing is pending.
    pub fn abandon_iteration(&mut self) {
        let Some(pending) = self.pending.take() else {
            return;
        };
        let tracer = self.config.tracer.clone();
        let num_regions = self.relevant_regions().len();
        if tracer.is_enabled() {
            let (calls, chunks) = take_chunk_stats();
            tracer.emit_scoped(
                "pool",
                vec![("calls", Value::from(calls)), ("chunks", Value::from(chunks))],
            );
            let stats = self.engine.stats();
            tracer.emit_scoped(
                "iter_end",
                vec![
                    ("new_samples", Value::from(0usize)),
                    ("discovery_samples", Value::from(0usize)),
                    ("misclass_samples", Value::from(0usize)),
                    ("boundary_samples", Value::from(0usize)),
                    ("total_labeled", Value::from(self.labeled.len())),
                    ("relevant_labeled", Value::from(self.labeled.relevant_count())),
                    ("num_regions", Value::from(num_regions)),
                    ("queries", Value::from(stats.queries)),
                    ("tuples_examined", Value::from(stats.tuples_examined)),
                    ("tuples_returned", Value::from(stats.tuples_returned)),
                    ("cache_hits", Value::from(stats.cache_hits)),
                    ("cache_misses", Value::from(stats.cache_misses)),
                    ("cached_regions", Value::from(self.engine.cached_regions())),
                    ("dur_us", Value::from(pending.propose_elapsed.as_micros() as u64)),
                ],
            );
        }
        let (f, p, r) = self.last_eval;
        let report = IterationReport {
            iteration: self.iteration,
            new_samples: 0,
            discovery_samples: 0,
            misclass_samples: 0,
            boundary_samples: 0,
            total_labeled: self.labeled.len(),
            relevant_labeled: self.labeled.relevant_count(),
            f_measure: f,
            precision: p,
            recall: r,
            num_regions,
            duration: pending.propose_elapsed,
            extraction: self.engine.stats(),
            misclass_queries: pending.misclass_queries,
            boundary_queries: pending.boundary_queries,
            model_fit: Duration::from_micros(pending.misclass_fit_us),
            model_rebuilt: None,
        };
        self.iteration += 1;
        self.history.push(report);
    }

    /// Re-evaluates the current model if `last_eval` is stale (an
    /// iteration skipped its evaluation under `eval_every > 1`), patching
    /// the most recent report so the trace matches what consumers see.
    /// No-op without ground truth or when the measurement is fresh.
    fn refresh_eval(&mut self) {
        if self.eval_fresh {
            return;
        }
        let Some(truth) = &self.ground_truth else {
            return;
        };
        let m = evaluate_model_traced(
            self.tree.as_ref(),
            &self.eval_view,
            eval_index(&self.engine, &self.eval_view),
            truth,
            &self.pool,
            &self.config.tracer,
        );
        self.last_eval = (m.f_measure(), m.precision(), m.recall());
        self.eval_fresh = true;
        if let Some(last) = self.history.last_mut() {
            if last.iteration + 1 == self.iteration {
                last.f_measure = self.last_eval.0;
                last.precision = self.last_eval.1;
                last.recall = self.last_eval.2;
            }
        }
    }

    /// Runs iterations until the stop condition fires (or exploration
    /// stalls: three consecutive iterations without a single new sample).
    /// Closes the trace's session span: refreshes the evaluation and
    /// emits the `session_end` event (once — later calls are no-ops).
    /// [`run`] calls this automatically; call it yourself when driving
    /// [`run_iteration`] manually with an enabled tracer, before
    /// draining or serializing the trace, so the stream nests correctly
    /// (`trace_report.py --validate` requires a closed session span).
    pub fn finish_trace(&mut self) {
        if !self.config.tracer.is_enabled() || self.trace_finished {
            return;
        }
        self.refresh_eval();
        self.config.tracer.emit(
            "session_end",
            vec![
                ("iterations", Value::from(self.iteration)),
                ("total_labeled", Value::from(self.labeled.len())),
                ("final_f", Value::from(self.last_eval.0)),
                ("dur_us", Value::from(self.started.elapsed().as_micros() as u64)),
            ],
        );
        self.trace_finished = true;
    }

    /// Runs iterations until `stop` is met (target F-measure, label
    /// budget, iteration cap, or three consecutive sample-less
    /// iterations), finalizes the trace, and returns the summary.
    pub fn run(&mut self, stop: StopCondition) -> SessionResult {
        let mut stalled = 0usize;
        while self.iteration < stop.max_iterations {
            let report = self.run_iteration();
            let new_samples = report.new_samples;
            let labeled = report.total_labeled;
            stalled = if new_samples == 0 { stalled + 1 } else { 0 };
            // A target-F stop must judge the *current* model: under
            // `eval_every > 1` the cached measurement can lag several
            // iterations behind and would stop the session early or late.
            if stop.target_f.is_some() {
                self.refresh_eval();
            }
            let f = self.last_eval.0;
            if stop.target_f.is_some_and(|t| f >= t)
                || stop.max_labels.is_some_and(|m| labeled >= m)
                || stalled >= 3
            {
                break;
            }
        }
        // The reported final F must measure the final model even when the
        // last iteration skipped its evaluation.
        self.refresh_eval();
        self.finish_trace();
        self.result()
    }

    /// Summary of the session so far.
    pub fn result(&self) -> SessionResult {
        SessionResult {
            history: self.history.clone(),
            final_f: self.last_eval.0,
            total_labeled: self.labeled.len(),
            iterations: self.iteration,
            total_time: self.history.iter().map(|r| r.duration).sum(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Discovery = 0,
    Misclassified = 1,
    Boundary = 2,
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_util::rng::Rng;

    fn uniform_view(n: usize, dims: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            (0..dims).map(|d| format!("a{d}")).collect(),
            vec![Domain::new(0.0, 100.0); dims],
        );
        let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    fn single_area_target() -> TargetQuery {
        TargetQuery::new(vec![Rect::new(vec![40.0, 55.0], vec![48.0, 63.0])])
    }

    #[test]
    fn first_iteration_runs_discovery_only() {
        let view = uniform_view(20_000, 2, 1);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 2);
        let r = s.run_iteration();
        assert_eq!(r.iteration, 0);
        assert_eq!(r.misclass_samples, 0);
        assert_eq!(r.boundary_samples, 0);
        assert!(r.discovery_samples > 0);
        assert_eq!(r.new_samples, r.total_labeled);
    }

    #[test]
    fn session_converges_on_a_single_large_area() {
        let view = uniform_view(20_000, 2, 3);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 4);
        let result = s.run(StopCondition {
            target_f: Some(0.8),
            max_labels: Some(600),
            max_iterations: 60,
        });
        assert!(
            result.final_f >= 0.8,
            "failed to converge: F = {} after {} labels",
            result.final_f,
            result.total_labeled
        );
        assert!(result.total_labeled <= 600);
        // Later phases kicked in.
        assert!(result.history.iter().any(|r| r.misclass_samples > 0));
    }

    #[test]
    fn predicted_query_matches_the_model() {
        let view = uniform_view(20_000, 2, 5);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 6);
        s.run(StopCondition {
            target_f: Some(0.7),
            max_labels: Some(600),
            max_iterations: 60,
        });
        let q = s.predicted_selection("sky");
        let sql = q.to_sql();
        assert!(sql.starts_with("SELECT * FROM sky"));
        assert!(!q.disjuncts.is_empty(), "no relevant areas predicted");
        // The predicted region overlaps the true area.
        let regions = s.relevant_regions();
        let truth = single_area_target();
        assert!(
            regions
                .iter()
                .any(|r| truth.areas()[0].overlap_fraction(r) > 0.5),
            "prediction misses the target"
        );
    }

    #[test]
    fn phase_ablation_disables_phases() {
        let view = uniform_view(10_000, 2, 7);
        let config = SessionConfig {
            phases: crate::config::PhaseToggles {
                discovery: true,
                misclassified: false,
                boundary: false,
            },
            ..SessionConfig::default()
        };
        let mut s = ExplorationSession::from_view(config, view, single_area_target(), 8);
        for _ in 0..10 {
            s.run_iteration();
        }
        for r in s.history() {
            assert_eq!(r.misclass_samples, 0);
            assert_eq!(r.boundary_samples, 0);
        }
    }

    #[test]
    fn eval_every_reuses_previous_measurement() {
        let view = uniform_view(5_000, 2, 9);
        let config = SessionConfig {
            eval_every: 5,
            ..SessionConfig::default()
        };
        let mut s = ExplorationSession::from_view(config, view, single_area_target(), 10);
        for _ in 0..4 {
            s.run_iteration();
        }
        // Iterations 1–3 reuse iteration 0's (f, p, r) triple only when
        // nothing was re-evaluated; the trace must still be monotone in
        // labels.
        let h = s.history();
        assert!(h
            .windows(2)
            .all(|w| w[1].total_labeled >= w[0].total_labeled));
    }

    #[test]
    fn target_f_stop_is_judged_on_fresh_eval_under_eval_every() {
        // Regression test: with `eval_every > 1` the run() loop used to
        // check `target_f` against a cached F-measure up to four
        // iterations old, stopping late (and reporting a stale final F).
        // Evaluation consumes no randomness, so two runs differing only
        // in `eval_every` follow identical label traces and must stop at
        // the same iteration with the same fresh final F.
        let stop = StopCondition {
            target_f: Some(0.8),
            max_labels: Some(600),
            max_iterations: 60,
        };
        let run_with = |eval_every: usize| {
            let view = uniform_view(20_000, 2, 3);
            let config = SessionConfig {
                eval_every,
                ..SessionConfig::default()
            };
            let mut s = ExplorationSession::from_view(config, view, single_area_target(), 4);
            s.run(stop)
        };
        let every = run_with(1);
        assert!(every.final_f >= 0.8, "baseline failed to converge");
        let sparse = run_with(5);
        assert_eq!(sparse.iterations, every.iterations, "stopped late or early");
        assert_eq!(sparse.total_labeled, every.total_labeled);
        assert!(sparse.final_f >= 0.8, "stale final F: {}", sparse.final_f);
    }

    #[test]
    fn budget_starved_false_negatives_are_not_charged_attempts() {
        // Regression test: retirement attempts used to be charged while
        // *listing* false negatives, so an FN the phase never reached
        // (budget exhausted on earlier FNs) could retire unsampled. With
        // `misclass_retire_after: 1`, one phantom attempt is enough to
        // retire it forever.
        let view = uniform_view(20_000, 2, 17);
        let target = TargetQuery::new(vec![
            Rect::new(vec![18.0, 18.0], vec![22.0, 22.0]),
            Rect::new(vec![78.0, 78.0], vec![82.0, 82.0]),
        ]);
        let config = SessionConfig {
            phases: crate::config::PhaseToggles {
                discovery: false,
                misclassified: true,
                boundary: false,
            },
            clustered_misclassified: false,
            misclass_retire_after: 1,
            misclass_f: 20,
            samples_per_iteration: 20,
            ..SessionConfig::default()
        };
        let mut s = ExplorationSession::from_view(config, view, target, 18);
        // Seed two isolated relevant objects (rows outside the view) plus
        // irrelevant spread: with min_samples_leaf = 2 neither can form
        // its own pure leaf, so both start as false negatives.
        let mut labels = LabeledSet::new(2);
        let seed_points: [([f64; 2], bool); 6] = [
            ([20.0, 20.0], true),
            ([80.0, 80.0], true),
            ([50.0, 50.0], false),
            ([5.0, 90.0], false),
            ([90.0, 5.0], false),
            ([50.0, 5.0], false),
        ];
        for (i, (p, relevant)) in seed_points.iter().enumerate() {
            labels.push(
                &Sample {
                    view_index: i as u32,
                    row_id: 1_000_000 + i as u32,
                    point: p.to_vec(),
                },
                *relevant,
            );
        }
        s.seed_labels(labels);

        // Iteration 1: the f = 20 samples around the first FN consume the
        // whole 20-sample budget, so the second FN is never sampled
        // around — it must not be charged an attempt.
        let r1 = s.run_iteration();
        assert!(r1.misclass_samples > 0, "phase did not run");
        assert_eq!(s.fn_attempts.get(&1_000_000), Some(&1));
        assert_eq!(
            s.fn_attempts.get(&1_000_001),
            None,
            "budget-starved FN was charged an attempt it never got"
        );

        // Iteration 2: the first FN is retired (1 attempt >= limit) or
        // absorbed; the second is still eligible and finally gets its
        // sampling round.
        let r2 = s.run_iteration();
        assert!(
            r2.misclass_samples > 0,
            "second FN retired without ever being sampled around"
        );
        assert_eq!(s.fn_attempts.get(&1_000_001), Some(&1));
    }

    #[test]
    fn stalled_sessions_terminate() {
        // A view with a handful of points exhausts quickly; run() must not
        // spin forever.
        let view = uniform_view(5, 2, 11);
        let target = single_area_target();
        let mut s = ExplorationSession::from_view(SessionConfig::default(), view, target, 12);
        let result = s.run(StopCondition {
            target_f: Some(0.99),
            max_labels: None,
            max_iterations: 1_000,
        });
        assert!(result.iterations < 1_000, "did not stall-stop");
    }

    #[test]
    fn labels_are_never_duplicated() {
        let view = uniform_view(2_000, 2, 13);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 14);
        for _ in 0..20 {
            s.run_iteration();
        }
        // All labeled rows are distinct by construction of LabeledSet;
        // total labels must equal the user's reviewed count minus the
        // duplicates that were skipped.
        assert!(s.labeled().len() <= s.reviewed());
        assert_eq!(s.labeled().seen_rows().len(), s.labeled().len());
    }

    #[test]
    fn result_reports_labels_to_reach() {
        let view = uniform_view(20_000, 2, 15);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 16);
        let result = s.run(StopCondition {
            target_f: Some(0.7),
            max_labels: Some(600),
            max_iterations: 60,
        });
        if result.final_f >= 0.7 {
            let labels = result.labels_to_reach(0.7).expect("reached 0.7");
            assert!(labels <= result.total_labeled);
            assert!(result.labels_to_reach(1.01).is_none());
        }
    }

    /// The propose/complete split is the wire-facing form of the loop: a
    /// client labeling each proposed sample by target membership must
    /// reproduce the oracle-driven session bit for bit.
    #[test]
    fn propose_complete_split_matches_run_iteration() {
        let target = single_area_target();
        let mut oracle_driven = ExplorationSession::from_view(
            SessionConfig::default(),
            uniform_view(20_000, 2, 21),
            target.clone(),
            22,
        );
        let mut wire_driven = ExplorationSession::from_view(
            SessionConfig::default(),
            uniform_view(20_000, 2, 21),
            target.clone(),
            22,
        );
        for _ in 0..8 {
            oracle_driven.run_iteration();
            let proposals = wire_driven.propose_iteration();
            assert_eq!(wire_driven.pending_len(), Some(proposals.len()));
            // A client sees only the points; it labels by membership,
            // exactly what the in-process simulated user does.
            let labels: Vec<bool> = proposals.iter().map(|s| target.contains(&s.point)).collect();
            wire_driven.complete_iteration(&labels);
            assert_eq!(wire_driven.pending_len(), None);
        }
        for (a, b) in oracle_driven.history().iter().zip(wire_driven.history()) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.new_samples, b.new_samples);
            assert_eq!(a.discovery_samples, b.discovery_samples);
            assert_eq!(a.misclass_samples, b.misclass_samples);
            assert_eq!(a.boundary_samples, b.boundary_samples);
            assert_eq!(a.total_labeled, b.total_labeled);
            assert_eq!(a.relevant_labeled, b.relevant_labeled);
            assert_eq!(a.f_measure.to_bits(), b.f_measure.to_bits());
            assert_eq!(a.precision.to_bits(), b.precision.to_bits());
            assert_eq!(a.recall.to_bits(), b.recall.to_bits());
            assert_eq!(a.num_regions, b.num_regions);
            assert_eq!(a.model_rebuilt, b.model_rebuilt);
            // Everything but wall-clock time must match exactly.
            assert_eq!(a.extraction.queries, b.extraction.queries);
            assert_eq!(a.extraction.tuples_examined, b.extraction.tuples_examined);
            assert_eq!(a.extraction.tuples_returned, b.extraction.tuples_returned);
            assert_eq!(a.extraction.cache_hits, b.extraction.cache_hits);
            assert_eq!(a.extraction.cache_misses, b.extraction.cache_misses);
        }
        assert_eq!(
            oracle_driven.predicted_selection("t").to_sql(),
            wire_driven.predicted_selection("t").to_sql()
        );
    }

    #[test]
    fn abandon_iteration_closes_the_round_without_labels() {
        let view = uniform_view(10_000, 2, 23);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 24);
        s.run_iteration();
        let labeled_before = s.labeled().len();
        let proposals = s.propose_iteration();
        assert!(!proposals.is_empty());
        s.abandon_iteration();
        assert_eq!(s.pending_len(), None);
        // The round closed with zero new samples and no model change.
        let last = s.history().last().expect("abandoned report");
        assert_eq!(last.iteration, 1);
        assert_eq!(last.new_samples, 0);
        assert_eq!(last.total_labeled, labeled_before);
        assert_eq!(s.labeled().len(), labeled_before);
        // Abandoning with nothing pending is a no-op…
        s.abandon_iteration();
        assert_eq!(s.history().len(), 2);
        // …and the session keeps working afterwards.
        let r = s.run_iteration();
        assert_eq!(r.iteration, 2);
    }

    #[test]
    #[should_panic(expected = "one label per pending proposal")]
    fn complete_iteration_rejects_mismatched_label_counts() {
        let view = uniform_view(5_000, 2, 25);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 26);
        let proposals = s.propose_iteration();
        let labels = vec![true; proposals.len() + 1];
        s.complete_iteration(&labels);
    }

    #[test]
    #[should_panic(expected = "a proposed batch is pending")]
    fn propose_twice_without_completion_panics() {
        let view = uniform_view(5_000, 2, 27);
        let mut s =
            ExplorationSession::from_view(SessionConfig::default(), view, single_area_target(), 28);
        s.propose_iteration();
        s.propose_iteration();
    }
}
