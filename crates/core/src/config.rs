//! Session configuration: every knob of the three exploration phases and
//! their optimizations (paper §3–§5).

use aide_ml::TreeParams;
use aide_util::geom::Rect;
use aide_util::trace::Tracer;

/// Which object-discovery strategy to run (paper §3, §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveryStrategy {
    /// Hierarchical equi-width exploration grid (the default).
    Grid,
    /// Skew-aware k-means cluster hierarchy (optimization of §3.1).
    Clustering,
    /// The hybrid strategy sketched in §6.4's discussion (paper future
    /// work): start with clustering to cover dense areas first, switch to
    /// the grid once the cluster hierarchy stops producing relevant
    /// objects — i.e. when the interests appear to lie in sparse areas.
    Hybrid,
}

/// Which phases are active — used for the Figure 8(f) ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseToggles {
    /// Relevant object discovery (§3).
    pub discovery: bool,
    /// Misclassified exploitation (§4).
    pub misclassified: bool,
    /// Boundary exploitation (§5).
    pub boundary: bool,
}

impl Default for PhaseToggles {
    fn default() -> Self {
        Self {
            discovery: true,
            misclassified: true,
            boundary: true,
        }
    }
}

/// Optional user hints (paper §3.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Hints {
    /// Minimum per-dimension width (normalized units) of any relevant
    /// area. Lets discovery start at the exploration level whose cell
    /// width δ is at most this value, guaranteeing every relevant area is
    /// "hit" on the first pass.
    pub min_area_width: Option<f64>,
    /// Restrict exploration to this normalized sub-rectangle
    /// (range-based hint: "clinical trials in years [2000, 2010]").
    pub range: Option<Rect>,
}

/// All tunables of an exploration session. Defaults follow the paper's
/// experimental setup where it is specified (20 samples per iteration,
/// x = 1, f in 10–25) and sensible mid-range values elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// New samples shown to the user per iteration (paper §6.2 uses 20).
    pub samples_per_iteration: usize,

    // --- Relevant object discovery (§3) ---------------------------------
    /// Which discovery strategy to use.
    pub discovery_strategy: DiscoveryStrategy,
    /// β: level-0 grid splits each normalized domain into β ranges; level
    /// ℓ uses β·2^ℓ (zooming halves the cell width, Figure 3).
    pub grid_beta: usize,
    /// Deepest exploration level cells may zoom into.
    pub max_exploration_level: usize,
    /// Number of clusters at level 0 of the clustering strategy; level ℓ
    /// uses `k0 · 2^ℓ` clusters.
    pub cluster_k0: usize,
    /// Cap on points used to fit the discovery k-means (fitting on a
    /// simple random subset preserves the cluster structure).
    pub cluster_fit_cap: usize,
    /// Base sampling radius around a cell center, as a fraction of the
    /// cell width δ (γ = `gamma_fraction`·δ, must stay below 0.5 so
    /// samples stay inside their cell).
    pub gamma_fraction: f64,
    /// Widen γ toward δ/2 in sparse cells (density-aware γ, §3).
    pub density_aware_gamma: bool,
    /// Hybrid strategy: minimum clustering proposals before the hit rate
    /// is judged.
    pub hybrid_switch_after: usize,
    /// Hybrid strategy: relevant-hit rate below which clustering is
    /// abandoned for the grid.
    pub hybrid_min_hit_rate: f64,
    /// User hints, if any.
    pub hints: Hints,

    // --- Misclassified exploitation (§4) --------------------------------
    /// f: samples collected around each false negative (paper: 10–25).
    pub misclass_f: usize,
    /// y: normalized sampling distance around a false negative / cluster.
    pub misclass_y: f64,
    /// Use the clustering-based optimization (one query per cluster of
    /// false negatives instead of one per object, §4.2).
    pub clustered_misclassified: bool,
    /// Adapt `y` to the width of the currently predicted relevant areas
    /// (the dynamic-y direction §4.2 leaves as future work). When the
    /// model has no areas yet the static `misclass_y` is used.
    pub adaptive_misclass_y: bool,
    /// Retire a false negative after this many misclassified-exploitation
    /// rounds have sampled around it without the model absorbing it.
    /// Under the paper's noise-free assumption (§2.1) every FN is real
    /// and this should stay `usize::MAX`; with noisy labels a flipped
    /// object stays a false negative forever and would otherwise hijack
    /// the phase's budget every iteration (see `repro ext-noise`).
    pub misclass_retire_after: usize,
    /// Fraction of the iteration budget the misclassified phase may
    /// consume (1.0 = the paper's behaviour: take whatever it needs).
    /// Lowering it keeps discovery alive when false negatives are
    /// plentiful — e.g. under label noise, where every flipped object
    /// spawns a phantom FN.
    pub misclass_budget_fraction: f64,

    // --- Boundary exploitation (§5) --------------------------------------
    /// α_max: cap on boundary-phase samples per iteration.
    pub boundary_alpha_max: usize,
    /// x: normalized half-width of the sampling slab around a boundary
    /// (paper sets x = 1).
    pub boundary_x: f64,
    /// Adaptive per-boundary sample sizing from split-rule change (§5.2).
    pub adaptive_boundary: bool,
    /// Boundary movement (normalized units) that counts as "fully
    /// changed" for the adaptive allocation. The paper's `pc` is the
    /// change of the boundary's normalized value; this scale converts it
    /// to a fraction of the full per-boundary allocation.
    pub boundary_change_scale: f64,
    /// er: error-floor samples per boundary even when unchanged (§5.2).
    pub boundary_error_floor: usize,
    /// Skip sampling slabs that overlap the previous iteration's slabs
    /// (non-overlapping sampling areas, §5.2).
    pub nonoverlap_boundary: bool,
    /// Overlap fraction above which a slab counts as redundant.
    pub nonoverlap_threshold: f64,
    /// Sample the non-boundary dimensions over their whole domain instead
    /// of the rectangle extent (irrelevant-attribute identification,
    /// §5.2).
    pub domain_sampling: bool,

    // --- Model & loop -----------------------------------------------------
    /// Decision-tree induction parameters.
    pub tree: TreeParams,
    /// Which phases run (ablations).
    pub phases: PhaseToggles,
    /// Evaluate the F-measure every `eval_every` iterations (1 = always).
    pub eval_every: usize,
    /// Worker threads for the parallel hot paths (full-view evaluation,
    /// tree fitting, index construction). 0 = one per available core; the
    /// `AIDE_THREADS` environment variable overrides this value; 1 runs
    /// everything inline on the calling thread. Results are bit-identical
    /// for any setting.
    pub threads: usize,
    /// Structured tracing handle ([`aide_util::trace`]). Disabled by
    /// default: every emission is one branch and the session behaves
    /// exactly as untraced. An enabled tracer records span, wave, eval
    /// and pool events into its ring buffer; drain or serialize it after
    /// the session (`aide explore --trace out.jsonl` does both). Event
    /// content (everything but wall-clock fields) is bit-identical for
    /// any `threads` / `AIDE_THREADS` setting.
    pub tracer: Tracer,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            samples_per_iteration: 20,
            discovery_strategy: DiscoveryStrategy::Grid,
            grid_beta: 4,
            max_exploration_level: 4,
            cluster_k0: 16,
            cluster_fit_cap: 20_000,
            gamma_fraction: 0.4,
            density_aware_gamma: true,
            hybrid_switch_after: 32,
            hybrid_min_hit_rate: 0.05,
            hints: Hints::default(),
            misclass_f: 10,
            misclass_y: 3.0,
            clustered_misclassified: true,
            adaptive_misclass_y: false,
            misclass_retire_after: usize::MAX,
            misclass_budget_fraction: 1.0,
            boundary_alpha_max: 10,
            boundary_x: 1.0,
            adaptive_boundary: true,
            boundary_change_scale: 2.0,
            boundary_error_floor: 1,
            nonoverlap_boundary: true,
            nonoverlap_threshold: 0.9,
            domain_sampling: true,
            // A minimum leaf size (Weka's CART enforces one too) is what
            // makes the misclassified phase work: an isolated relevant
            // sample cannot form its own pure leaf, so it shows up as a
            // false negative that phase 2 then densifies into an area.
            tree: TreeParams {
                min_samples_leaf: 2,
                min_samples_split: 4,
                ..TreeParams::default()
            },
            phases: PhaseToggles::default(),
            eval_every: 1,
            threads: 0,
            tracer: Tracer::disabled(),
        }
    }
}

impl SessionConfig {
    /// The discovery level implied by a distance hint: the shallowest
    /// level whose cell width δ = 100/(β·2^ℓ) does not exceed the hinted
    /// minimum area width (paper §3.1), clamped to the configured maximum
    /// level.
    pub fn hinted_start_level(&self) -> usize {
        let Some(width) = self.hints.min_area_width else {
            return 0;
        };
        let mut level = 0usize;
        while level < self.max_exploration_level
            && 100.0 / (self.grid_beta as f64 * (1 << level) as f64) > width
        {
            level += 1;
        }
        level
    }
}

/// When an exploration session stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopCondition {
    /// Stop once the F-measure reaches this value.
    pub target_f: Option<f64>,
    /// Stop once this many objects have been labeled.
    pub max_labels: Option<usize>,
    /// Hard cap on iterations.
    pub max_iterations: usize,
}

impl Default for StopCondition {
    fn default() -> Self {
        Self {
            target_f: None,
            max_labels: Some(500),
            max_iterations: 100,
        }
    }
}

impl StopCondition {
    /// Stop at the given accuracy (or the default 100-iteration cap).
    pub fn at_accuracy(f: f64) -> Self {
        Self {
            target_f: Some(f),
            max_labels: None,
            max_iterations: 200,
        }
    }

    /// Stop after labeling `n` objects.
    pub fn at_labels(n: usize) -> Self {
        Self {
            target_f: None,
            max_labels: Some(n),
            max_iterations: 10 * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_setup() {
        let c = SessionConfig::default();
        assert_eq!(c.samples_per_iteration, 20);
        assert_eq!(c.boundary_x, 1.0);
        assert!(c.misclass_f >= 10 && c.misclass_f <= 25);
        assert!(c.gamma_fraction < 0.5);
        assert_eq!(c.discovery_strategy, DiscoveryStrategy::Grid);
    }

    #[test]
    fn hinted_start_level_matches_cell_width() {
        let mut c = SessionConfig {
            grid_beta: 4,
            max_exploration_level: 3,
            ..SessionConfig::default()
        };
        // No hint: level 0.
        assert_eq!(c.hinted_start_level(), 0);
        // Hint 25: δ at level 0 is 100/4 = 25 ≤ 25 → level 0.
        c.hints.min_area_width = Some(25.0);
        assert_eq!(c.hinted_start_level(), 0);
        // Hint 10: level 1 gives δ = 12.5 > 10, level 2 gives 6.25 ≤ 10.
        c.hints.min_area_width = Some(10.0);
        assert_eq!(c.hinted_start_level(), 2);
        // Tiny hint clamps to max level.
        c.hints.min_area_width = Some(0.001);
        assert_eq!(c.hinted_start_level(), 3);
    }

    #[test]
    fn stop_condition_constructors() {
        let s = StopCondition::at_accuracy(0.7);
        assert_eq!(s.target_f, Some(0.7));
        assert_eq!(s.max_labels, None);
        let s = StopCondition::at_labels(300);
        assert_eq!(s.max_labels, Some(300));
    }
}
