//! Phase 1 — relevant object discovery (paper §3).
//!
//! Shows the user one object from each sampling area of a hierarchy of
//! areas, zooming into areas that yielded no relevant object:
//!
//! * [`GridDiscovery`] — the general technique: a hierarchical exploration
//!   grid where level ℓ splits each normalized domain into β·2^ℓ equal
//!   ranges; one object is retrieved near each cell center (within γ <
//!   δ/2, widened in sparse cells), and cells without a relevant object
//!   are explored again at the next level (Figure 3);
//! * [`ClusterDiscovery`] — the skew-aware optimization (§3.1): k-means
//!   clusters replace grid cells, so sampling areas concentrate where the
//!   data mass is.
//!
//! Both also honor the §3.1 hints: a *distance hint* chooses the starting
//! grid level, a *range hint* restricts exploration to a sub-rectangle.

use std::collections::{HashMap, VecDeque};

use aide_index::{Exclusions, ExtractionEngine, Sample};
use aide_ml::KMeans;
use aide_util::geom::Rect;
use aide_util::rng::{Rng, Xoshiro256pp};

use crate::config::{DiscoveryStrategy, SessionConfig};
use crate::model_state::DiscoveryState;

/// One proposed discovery sample. `token` identifies the sampling area so
/// the session can report back whether the labeled object was relevant
/// (`None` for budget-filling random samples after the hierarchy is
/// exhausted).
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    /// The extracted object.
    pub sample: Sample,
    /// Sampling-area token for [`DiscoveryPhase::feedback`].
    pub token: Option<u64>,
}

/// The active discovery strategy of a session.
///
/// Variants are boxed: a strategy lives once per session, so the extra
/// indirection is free while keeping the enum small.
#[derive(Debug)]
pub enum DiscoveryPhase {
    /// Hierarchical grid (§3).
    Grid(Box<GridDiscovery>),
    /// k-means cluster hierarchy (§3.1).
    Cluster(Box<ClusterDiscovery>),
    /// Clustering first, grid once the interests look sparse (§6.4's
    /// hybrid sketch, paper future work).
    Hybrid(Box<HybridDiscovery>),
}

impl DiscoveryPhase {
    /// Builds the configured strategy over the engine's view.
    pub fn new(config: &SessionConfig, engine: &ExtractionEngine, rng: &mut Xoshiro256pp) -> Self {
        match config.discovery_strategy {
            DiscoveryStrategy::Grid => {
                DiscoveryPhase::Grid(Box::new(GridDiscovery::new(config, engine)))
            }
            DiscoveryStrategy::Clustering => {
                DiscoveryPhase::Cluster(Box::new(ClusterDiscovery::new(config, engine, rng)))
            }
            DiscoveryStrategy::Hybrid => {
                DiscoveryPhase::Hybrid(Box::new(HybridDiscovery::new(config, engine, rng)))
            }
        }
    }

    /// Proposes up to `budget` samples from unexplored areas.
    pub fn propose(
        &mut self,
        budget: usize,
        engine: &mut ExtractionEngine,
        excluded: &Exclusions,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Proposal> {
        if engine.tracer().is_enabled() {
            let strategy = match self {
                DiscoveryPhase::Grid(_) => "grid",
                DiscoveryPhase::Cluster(_) => "clustering",
                DiscoveryPhase::Hybrid(_) => "hybrid",
            };
            engine.tracer().emit_scoped(
                "discovery_plan",
                vec![
                    ("strategy", aide_util::trace::Value::from(strategy)),
                    ("pending_areas", aide_util::trace::Value::from(self.pending_areas())),
                    ("budget", aide_util::trace::Value::from(budget)),
                ],
            );
        }
        match self {
            DiscoveryPhase::Grid(g) => g.propose(budget, engine, excluded, rng),
            DiscoveryPhase::Cluster(c) => c.propose(budget, engine, excluded, rng),
            DiscoveryPhase::Hybrid(h) => h.propose(budget, engine, excluded, rng),
        }
    }

    /// Reports the user's label for a sampling area; irrelevant areas are
    /// zoomed into at the next exploration level.
    pub fn feedback(&mut self, token: u64, relevant: bool) {
        match self {
            DiscoveryPhase::Grid(g) => g.feedback(token, relevant),
            DiscoveryPhase::Cluster(c) => c.feedback(token, relevant),
            DiscoveryPhase::Hybrid(h) => h.feedback(token, relevant),
        }
    }

    /// Number of sampling areas still queued.
    pub fn pending_areas(&self) -> usize {
        match self {
            DiscoveryPhase::Grid(g) => g.queue.len(),
            DiscoveryPhase::Cluster(c) => c.queue.len(),
            DiscoveryPhase::Hybrid(h) => h.pending_areas(),
        }
    }
}

// ---------------------------------------------------------------------------
// Grid strategy
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    level: usize,
    coords: Vec<u32>,
}

/// Hierarchical-grid object discovery (§3).
#[derive(Debug)]
pub struct GridDiscovery {
    dims: usize,
    beta: usize,
    max_level: usize,
    gamma_fraction: f64,
    density_aware: bool,
    range: Rect,
    queue: VecDeque<Cell>,
    pending: HashMap<u64, Cell>,
    next_token: u64,
    total_points: usize,
}

impl GridDiscovery {
    /// Hard cap on cells enqueued for one exploration level; a hinted
    /// start level in a high-dimensional space could otherwise explode.
    const MAX_LEVEL_CELLS: usize = 65_536;

    fn new(config: &SessionConfig, engine: &ExtractionEngine) -> Self {
        let dims = engine.view().dims();
        let range = config
            .hints
            .range
            .clone()
            .unwrap_or_else(|| Rect::full_domain(dims));
        assert_eq!(range.dims(), dims, "range hint dimensionality mismatch");
        let mut start_level = config.hinted_start_level();
        // Clamp the start level so the initial frontier stays tractable.
        while start_level > 0
            && cells_per_dim(config.grid_beta, start_level).pow(dims as u32) > Self::MAX_LEVEL_CELLS
        {
            start_level -= 1;
        }
        let mut disc = Self {
            dims,
            beta: config.grid_beta,
            max_level: config.max_exploration_level,
            gamma_fraction: config.gamma_fraction.clamp(0.05, 0.499),
            density_aware: config.density_aware_gamma,
            range,
            queue: VecDeque::new(),
            pending: HashMap::new(),
            next_token: 0,
            total_points: engine.view().len(),
        };
        disc.enqueue_level(start_level);
        disc
    }

    /// Side length (in cells) of level `level`.
    fn cells_at(&self, level: usize) -> usize {
        cells_per_dim(self.beta, level)
    }

    /// Normalized bounding rectangle of a cell.
    fn cell_rect(&self, cell: &Cell) -> Rect {
        let n = self.cells_at(cell.level) as f64;
        let width = 100.0 / n;
        let lo: Vec<f64> = cell.coords.iter().map(|&c| c as f64 * width).collect();
        let hi: Vec<f64> = lo.iter().map(|&l| l + width).collect();
        Rect::new(lo, hi)
    }

    /// Enqueues every cell of `level` that intersects the range hint.
    fn enqueue_level(&mut self, level: usize) {
        let n = self.cells_at(level);
        let width = 100.0 / n as f64;
        // Per-dimension coordinate ranges intersecting the hint.
        let ranges: Vec<(u32, u32)> = (0..self.dims)
            .map(|d| {
                let lo = ((self.range.lo(d) / width) as u32).min(n as u32 - 1);
                // A hint boundary sitting exactly on a cell edge should
                // not drag in the zero-overlap cell beyond it.
                let hi_raw = (self.range.hi(d) / width - 1e-9).max(0.0) as u32;
                let hi = hi_raw.clamp(lo, n as u32 - 1);
                (lo, hi)
            })
            .collect();
        let mut coords: Vec<u32> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            self.queue.push_back(Cell {
                level,
                coords: coords.clone(),
            });
            let mut d = self.dims;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if coords[d] < ranges[d].1 {
                    coords[d] += 1;
                    break;
                }
                coords[d] = ranges[d].0;
            }
        }
    }

    /// The γ-neighbourhoods of a wave of cells, density-widened for
    /// sparse cells (§3: "sparse cells should use a higher γ value than
    /// dense ones"). The per-cell density probes go out as **one**
    /// [`ExtractionEngine::count_batch`] call.
    fn sampling_rects(&self, wave: &[(Cell, Rect)], engine: &mut ExtractionEngine) -> Vec<Rect> {
        // Which cells take a density probe is pure in the cell geometry.
        let full_volume = Rect::full_domain(self.dims).volume();
        let mut probed: Vec<usize> = Vec::new();
        let mut probe_rects: Vec<Rect> = Vec::new();
        let mut expected: Vec<f64> = vec![0.0; wave.len()];
        if self.density_aware && self.total_points > 0 {
            for (i, (_, cell_rect)) in wave.iter().enumerate() {
                expected[i] = cell_rect.volume() / full_volume;
                if expected[i] > 0.0 {
                    probed.push(i);
                    probe_rects.push(cell_rect.clone());
                }
            }
        }
        let counts = engine.count_batch(&probe_rects);
        let mut fractions = vec![self.gamma_fraction; wave.len()];
        for (&i, &count) in probed.iter().zip(&counts) {
            let density = count as f64 / self.total_points as f64;
            let ratio = (density / expected[i]).min(1.0);
            // Dense cell: γ stays at the base; empty-ish cell: γ grows
            // toward the δ/2 ceiling.
            fractions[i] = (self.gamma_fraction + (0.499 - self.gamma_fraction) * (1.0 - ratio))
                .min(0.499);
        }
        wave.iter()
            .zip(&fractions)
            .map(|((_, cell_rect), &fraction)| {
                let center = cell_rect.center();
                let widths: Vec<f64> = (0..self.dims)
                    .map(|d| cell_rect.width(d) * fraction * 2.0)
                    .collect();
                Rect::from_center(&center, &widths, cell_rect)
            })
            .collect()
    }

    fn propose(
        &mut self,
        budget: usize,
        engine: &mut ExtractionEngine,
        excluded: &Exclusions,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Proposal> {
        let mut out = Vec::with_capacity(budget);
        // Wave-batched form of the old serial per-cell loop. Every cell
        // yields at most one sample, so the next `budget - out.len()`
        // sampleable cells are exactly the cells the serial loop would
        // have processed before its budget check could fire; all their
        // (RNG-free) queries go out in batch passes. Selection runs in
        // parallel on pre-split per-cell RNG streams (each cell's
        // effective area — γ-neighbourhood, or the whole cell when the
        // neighbourhood is empty — is decided RNG-free up front).
        while out.len() < budget && !self.queue.is_empty() {
            let want = budget - out.len();
            let mut wave: Vec<(Cell, Rect)> = Vec::with_capacity(want);
            while wave.len() < want {
                let Some(cell) = self.queue.pop_front() else {
                    break;
                };
                // Cells straddling the range-hint boundary are clipped so
                // no sample falls outside the user's stated interest
                // range.
                let Some(cell_rect) = self.cell_rect(&cell).intersection(&self.range) else {
                    continue;
                };
                wave.push((cell, cell_rect));
            }
            let gamma_rects = self.sampling_rects(&wave, engine);
            let gamma_out = engine.query_batch_outputs(&gamma_rects);
            // Whether a cell falls back to its whole rectangle is RNG-free:
            // the γ-selection comes back empty iff the γ-area holds no
            // unexcluded candidate.
            let fallback: Vec<usize> = (0..wave.len())
                .filter(|&i| !engine.has_candidates(&gamma_out[i], excluded))
                .collect();
            let fallback_rects: Vec<Rect> =
                fallback.iter().map(|&i| wave[i].1.clone()).collect();
            let fallback_out = engine.query_batch_outputs(&fallback_rects);
            let fallback_for: HashMap<usize, usize> =
                fallback.iter().enumerate().map(|(k, &i)| (i, k)).collect();
            // Each cell's effective sampling area is already settled:
            // the fallback list holds exactly the cells whose γ-area
            // is empty of unexcluded candidates.
            let effective: Vec<_> = (0..wave.len())
                .map(|i| match fallback_for.get(&i) {
                    Some(&k) => fallback_out[k].clone(),
                    None => gamma_out[i].clone(),
                })
                .collect();
            let wants: Vec<usize> = effective
                .iter()
                .map(|o| usize::from(engine.has_candidates(o, excluded)))
                .collect();
            let selected = engine.select_batch_streams(&effective, &wants, rng, excluded);
            for ((cell, _), samples) in wave.into_iter().zip(selected) {
                let Some(sample) = samples.into_iter().next() else {
                    // Empty cell: no data to discover, and nothing to zoom
                    // into either.
                    continue;
                };
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, cell);
                out.push(Proposal {
                    sample,
                    token: Some(token),
                });
            }
        }
        // Hierarchy exhausted: spend any remaining budget on random
        // samples over the (hinted) range so user effort is never idle.
        if out.len() < budget && self.queue.is_empty() {
            let want = budget - out.len();
            for sample in engine.sample_in_excluding(&self.range, want, rng, excluded) {
                out.push(Proposal {
                    sample,
                    token: None,
                });
            }
        }
        out
    }

    fn feedback(&mut self, token: u64, relevant: bool) {
        let Some(cell) = self.pending.remove(&token) else {
            return;
        };
        if relevant || cell.level >= self.max_level {
            return;
        }
        // Zoom in: the 2^d sub-cells at the next level (Figure 3).
        let child_level = cell.level + 1;
        let n_children = 1usize << self.dims;
        for combo in 0..n_children {
            let coords: Vec<u32> = (0..self.dims)
                .map(|d| cell.coords[d] * 2 + ((combo >> d) & 1) as u32)
                .collect();
            let child = Cell {
                level: child_level,
                coords,
            };
            // Respect the range hint.
            if self.cell_rect(&child).intersects(&self.range) {
                self.queue.push_back(child);
            }
        }
    }
}

fn cells_per_dim(beta: usize, level: usize) -> usize {
    beta * (1usize << level)
}

// ---------------------------------------------------------------------------
// Hybrid strategy (paper future work, §6.4)
// ---------------------------------------------------------------------------

/// Clustering-first discovery with a grid fallback.
///
/// §6.4 observes that clustering wins on skewed spaces with dense-area
/// interests but fails when interests lie in sparse areas, and sketches a
/// hybrid: "AIDE would be initialized with the clustered approach to
/// explore first dense areas. When the users interests are partially
/// revealed the system could switch to the grid-based approach if these
/// interests appear to lie on sparse areas." The switch signal here is
/// the clustering hit rate: once at least `hybrid_switch_after` cluster
/// proposals have been labeled with a relevant rate below
/// `hybrid_min_hit_rate` — or the cluster hierarchy runs dry — the grid
/// takes over.
#[derive(Debug)]
pub struct HybridDiscovery {
    cluster: ClusterDiscovery,
    grid: GridDiscovery,
    use_grid: bool,
    cluster_labeled: usize,
    cluster_relevant: usize,
    switch_after: usize,
    min_hit_rate: f64,
}

impl HybridDiscovery {
    fn new(config: &SessionConfig, engine: &ExtractionEngine, rng: &mut Xoshiro256pp) -> Self {
        Self {
            cluster: ClusterDiscovery::new(config, engine, rng),
            grid: GridDiscovery::new(config, engine),
            use_grid: false,
            cluster_labeled: 0,
            cluster_relevant: 0,
            switch_after: config.hybrid_switch_after.max(1),
            min_hit_rate: config.hybrid_min_hit_rate,
        }
    }

    /// Whether the strategy has fallen back to the grid.
    pub fn switched_to_grid(&self) -> bool {
        self.use_grid
    }

    fn pending_areas(&self) -> usize {
        if self.use_grid {
            self.grid.queue.len()
        } else {
            self.cluster.queue.len()
        }
    }

    fn maybe_switch(&mut self) {
        if self.use_grid {
            return;
        }
        let exhausted = self.cluster.queue.is_empty() && self.cluster_labeled > 0;
        let cold = self.cluster_labeled >= self.switch_after
            && (self.cluster_relevant as f64 / self.cluster_labeled as f64) < self.min_hit_rate;
        if exhausted || cold {
            self.use_grid = true;
        }
    }

    fn propose(
        &mut self,
        budget: usize,
        engine: &mut ExtractionEngine,
        excluded: &Exclusions,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Proposal> {
        self.maybe_switch();
        // Tokens from the two sub-strategies are disambiguated by the low
        // bit: cluster tokens are even, grid tokens odd.
        if self.use_grid {
            let mut out = self.grid.propose(budget, engine, excluded, rng);
            for p in &mut out {
                p.token = p.token.map(|t| t << 1 | 1);
            }
            out
        } else {
            let mut out = self.cluster.propose(budget, engine, excluded, rng);
            for p in &mut out {
                p.token = p.token.map(|t| t << 1);
            }
            out
        }
    }

    fn feedback(&mut self, token: u64, relevant: bool) {
        if token & 1 == 1 {
            self.grid.feedback(token >> 1, relevant);
        } else {
            self.cluster_labeled += 1;
            if relevant {
                self.cluster_relevant += 1;
            }
            self.cluster.feedback(token >> 1, relevant);
        }
    }
}

// ---------------------------------------------------------------------------
// Clustering strategy
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct ClusterLevel {
    km: KMeans,
    fit_data: Vec<f64>,
}

/// Skew-aware k-means object discovery (§3.1): sampling areas are cluster
/// neighbourhoods, so most of them land in dense regions.
#[derive(Debug)]
pub struct ClusterDiscovery {
    dims: usize,
    k0: usize,
    max_level: usize,
    gamma_fraction: f64,
    range: Rect,
    fit_cap: usize,
    levels: Vec<ClusterLevel>,
    queue: VecDeque<(usize, usize)>,
    pending: HashMap<u64, (usize, usize)>,
    next_token: u64,
    /// Converged centroids per level, so a level (re)build warm-starts
    /// from the previous fit instead of a fresh k-means++ pass.
    state: DiscoveryState,
}

impl ClusterDiscovery {
    fn new(config: &SessionConfig, engine: &ExtractionEngine, rng: &mut Xoshiro256pp) -> Self {
        let dims = engine.view().dims();
        let range = config
            .hints
            .range
            .clone()
            .unwrap_or_else(|| Rect::full_domain(dims));
        let mut disc = Self {
            dims,
            k0: config.cluster_k0.max(1),
            max_level: config.max_exploration_level,
            gamma_fraction: config.gamma_fraction.clamp(0.05, 0.95),
            range,
            fit_cap: config.cluster_fit_cap.max(100),
            levels: Vec::new(),
            queue: VecDeque::new(),
            pending: HashMap::new(),
            next_token: 0,
            state: DiscoveryState::default(),
        };
        // The cluster hierarchy is cheap relative to exploration (k-means
        // on a capped subset), so all levels are built up front.
        for level in 0..=disc.max_level {
            disc.build_level(level, engine, rng);
        }
        for c in 0..disc.levels[0].km.k() {
            disc.queue.push_back((0, c));
        }
        disc
    }

    /// Fits the k-means hierarchy level `level` (k = k0·2^level) on a
    /// random subset of the view restricted to the range hint.
    fn build_level(&mut self, level: usize, engine: &ExtractionEngine, rng: &mut Xoshiro256pp) {
        debug_assert_eq!(self.levels.len(), level, "levels are built in order");
        let view = engine.view();
        // Candidate points inside the range hint.
        let candidates: Vec<usize> = if self.range == Rect::full_domain(self.dims) {
            (0..view.len()).collect()
        } else {
            view.indices_in(&self.range)
        };
        let chosen: Vec<usize> = if candidates.len() > self.fit_cap {
            rng.sample_indices(candidates.len(), self.fit_cap)
                .into_iter()
                .map(|i| candidates[i])
                .collect()
        } else {
            candidates
        };
        let mut fit_data = Vec::with_capacity(chosen.len() * self.dims);
        for &i in &chosen {
            view.push_point_into(i, &mut fit_data);
        }
        if fit_data.is_empty() {
            // Degenerate (empty range): a single dummy point keeps the
            // structure valid; sampling will simply find nothing.
            fit_data = self.range.center();
        }
        let k = self.k0 * (1usize << level);
        // Levels are fitted once up front today, so the warm lookup only
        // hits on a future re-build — but recording every fit here keeps
        // the warm-start contract uniform with the misclassified phase.
        let warm = self
            .state
            .warm_centroids(level, self.dims, k)
            .map(|w| w.to_vec());
        let km = KMeans::fit_warm(self.dims, &fit_data, k, warm.as_deref(), rng);
        let centroids: Vec<f64> = (0..km.k()).flat_map(|c| km.centroid(c).to_vec()).collect();
        self.state.record(level, self.dims, centroids);
        self.levels.push(ClusterLevel { km, fit_data });
    }

    /// The sampling rectangle around a cluster centroid: width 2γ per
    /// dimension with γ = `gamma_fraction`·radius (γ < δ, §3.1), clipped
    /// to the exploration range.
    fn sampling_rect(&self, level: usize, cluster: usize) -> Rect {
        let lvl = &self.levels[level];
        let centroid = lvl.km.centroid(cluster).to_vec();
        let radius = lvl.km.radius_linf(&lvl.fit_data, cluster).max(0.5);
        let width = 2.0 * self.gamma_fraction * radius;
        Rect::from_center(&centroid, &vec![width; self.dims], &self.range)
    }

    fn propose(
        &mut self,
        budget: usize,
        engine: &mut ExtractionEngine,
        excluded: &Exclusions,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Proposal> {
        let mut out = Vec::with_capacity(budget);
        // Wave-batched like the grid strategy: each cluster yields at most
        // one sample, so the next `budget - out.len()` queue entries are
        // the ones the serial loop would have processed. Queries (γ-rects
        // and bounding-box fallbacks, both RNG-free) go out in batch
        // passes; selection runs on pre-split per-cluster RNG streams.
        while out.len() < budget && !self.queue.is_empty() {
            let want = budget - out.len();
            let mut wave: Vec<(usize, usize)> = Vec::with_capacity(want);
            while wave.len() < want {
                let Some(entry) = self.queue.pop_front() else {
                    break;
                };
                wave.push(entry);
            }
            let gamma_rects: Vec<Rect> = wave
                .iter()
                .map(|&(level, cluster)| self.sampling_rect(level, cluster))
                .collect();
            let gamma_out = engine.query_batch_outputs(&gamma_rects);
            // Which clusters widen to their bounding box is RNG-free.
            let mut fallback: Vec<usize> = Vec::new();
            let mut fallback_rects: Vec<Rect> = Vec::new();
            for (i, &(level, cluster)) in wave.iter().enumerate() {
                if engine.has_candidates(&gamma_out[i], excluded) {
                    continue;
                }
                let lvl = &self.levels[level];
                let Some(bbox) = lvl.km.bounding_rect(&lvl.fit_data, cluster) else {
                    continue;
                };
                let Some(clipped) = bbox.intersection(&self.range) else {
                    continue;
                };
                fallback.push(i);
                fallback_rects.push(clipped);
            }
            let fallback_out = engine.query_batch_outputs(&fallback_rects);
            let fallback_for: HashMap<usize, usize> =
                fallback.iter().enumerate().map(|(k, &i)| (i, k)).collect();
            let effective: Vec<_> = (0..wave.len())
                .map(|i| match fallback_for.get(&i) {
                    Some(&k) => fallback_out[k].clone(),
                    None => gamma_out[i].clone(),
                })
                .collect();
            let wants: Vec<usize> = effective
                .iter()
                .map(|o| usize::from(engine.has_candidates(o, excluded)))
                .collect();
            let selected = engine.select_batch_streams(&effective, &wants, rng, excluded);
            for ((level, cluster), samples) in wave.into_iter().zip(selected) {
                let Some(sample) = samples.into_iter().next() else {
                    continue;
                };
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, (level, cluster));
                out.push(Proposal {
                    sample,
                    token: Some(token),
                });
            }
        }
        if out.len() < budget && self.queue.is_empty() {
            let want = budget - out.len();
            for sample in engine.sample_in_excluding(&self.range, want, rng, excluded) {
                out.push(Proposal {
                    sample,
                    token: None,
                });
            }
        }
        out
    }

    fn feedback(&mut self, token: u64, relevant: bool) {
        let Some((level, cluster)) = self.pending.remove(&token) else {
            return;
        };
        if relevant || level + 1 >= self.levels.len() {
            return;
        }
        // Zoom: explore the next level's finer clusters that fall inside
        // this cluster's region (§3.1).
        self.enqueue_children(level, cluster);
    }

    fn enqueue_children(&mut self, level: usize, cluster: usize) {
        let Some(bbox) = self.levels[level]
            .km
            .bounding_rect(&self.levels[level].fit_data, cluster)
        else {
            return;
        };
        let child = &self.levels[level + 1];
        for c in 0..child.km.k() {
            if bbox.contains(child.km.centroid(c)) {
                self.queue.push_back((level + 1, c));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_data::NumericView;
    use aide_index::IndexKind;

    fn uniform_engine(n: usize, dims: usize, seed: u64) -> ExtractionEngine {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            (0..dims).map(|d| format!("a{d}")).collect(),
            vec![Domain::new(0.0, 100.0); dims],
        );
        let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
        let view = NumericView::new(mapper, data, (0..n as u32).collect());
        ExtractionEngine::new(view, IndexKind::Grid)
    }

    #[test]
    fn grid_first_pass_covers_all_cells() {
        let mut engine = uniform_engine(10_000, 2, 1);
        let config = SessionConfig::default(); // β = 4 ⇒ 16 cells
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        assert_eq!(disc.pending_areas(), 16);
        let proposals = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(proposals.len(), 16);
        // Every proposal comes from a distinct cell: pairwise distinct
        // cell coordinates ⇒ samples spread over the whole space.
        let mut cells = std::collections::HashSet::new();
        for p in &proposals {
            let cx = (p.sample.point[0] / 25.0).floor() as i32;
            let cy = (p.sample.point[1] / 25.0).floor() as i32;
            assert!(
                cells.insert((cx.min(3), cy.min(3))),
                "two samples in one cell"
            );
        }
    }

    #[test]
    fn grid_samples_stay_near_cell_centers() {
        let mut engine = uniform_engine(50_000, 2, 3);
        let config = SessionConfig {
            density_aware_gamma: false,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        let proposals = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        for p in &proposals {
            for d in 0..2 {
                let cell_width = 25.0;
                let offset = p.sample.point[d] % cell_width;
                let dist_from_center = (offset - cell_width / 2.0).abs();
                // γ = 0.4 · δ (the default) ⇒ samples within ±10 of the
                // center of their 25-unit cell.
                assert!(
                    dist_from_center <= 0.4 * cell_width + 1e-9,
                    "sample {:?} too far from its cell center",
                    p.sample.point
                );
            }
        }
    }

    #[test]
    fn grid_zooms_only_into_irrelevant_cells() {
        let mut engine = uniform_engine(10_000, 2, 5);
        let config = SessionConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        let proposals = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(disc.pending_areas(), 0);
        // Mark the first cell relevant, the second irrelevant.
        disc.feedback(proposals[0].token.unwrap(), true);
        disc.feedback(proposals[1].token.unwrap(), false);
        // Only the irrelevant cell spawns 2^2 = 4 children.
        assert_eq!(disc.pending_areas(), 4);
    }

    #[test]
    fn grid_respects_max_level() {
        let mut engine = uniform_engine(5_000, 2, 7);
        let config = SessionConfig {
            max_exploration_level: 0,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        let proposals = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        for p in proposals {
            disc.feedback(p.token.unwrap(), false);
        }
        assert_eq!(disc.pending_areas(), 0, "no zoom past max level");
    }

    #[test]
    fn exhausted_grid_falls_back_to_random_samples() {
        let mut engine = uniform_engine(1_000, 2, 9);
        let config = SessionConfig {
            max_exploration_level: 0,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        let first = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(first.len(), 16);
        let fallback = disc.propose(5, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(fallback.len(), 5);
        assert!(fallback.iter().all(|p| p.token.is_none()));
    }

    #[test]
    fn range_hint_restricts_cells_and_samples() {
        let mut engine = uniform_engine(20_000, 2, 11);
        let range = Rect::new(vec![0.0, 0.0], vec![50.0, 50.0]);
        let config = SessionConfig {
            hints: crate::config::Hints {
                min_area_width: None,
                range: Some(range.clone()),
            },
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        // Only the 2x2 block of level-0 cells intersecting the hint.
        assert_eq!(disc.pending_areas(), 4);
        let proposals = disc.propose(16, &mut engine, &Exclusions::none(), &mut rng);
        for p in &proposals {
            assert!(range.contains(&p.sample.point), "sample outside hint");
        }
    }

    #[test]
    fn distance_hint_starts_at_finer_level() {
        let engine = uniform_engine(20_000, 2, 13);
        let config = SessionConfig {
            hints: crate::config::Hints {
                min_area_width: Some(10.0),
                range: None,
            },
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(14);
        let disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        // Level 2 ⇒ (4·4)^2 = 256 cells.
        assert_eq!(disc.pending_areas(), 256);
    }

    #[test]
    fn hybrid_switches_to_grid_when_clustering_runs_cold() {
        let mut engine = uniform_engine(20_000, 2, 30);
        let config = SessionConfig {
            discovery_strategy: DiscoveryStrategy::Hybrid,
            cluster_k0: 8,
            max_exploration_level: 1,
            hybrid_switch_after: 8,
            hybrid_min_hit_rate: 0.05,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(31);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        // First pass: all 8 cluster proposals labeled irrelevant.
        let proposals = disc.propose(8, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(proposals.len(), 8);
        for p in &proposals {
            disc.feedback(p.token.unwrap(), false);
        }
        let DiscoveryPhase::Hybrid(h) = &disc else {
            panic!("expected hybrid phase");
        };
        assert!(!h.switched_to_grid(), "switch is judged at next propose");
        // Next proposal round trips the hit-rate check and switches.
        let _ = disc.propose(4, &mut engine, &Exclusions::none(), &mut rng);
        let DiscoveryPhase::Hybrid(h) = &disc else {
            panic!("expected hybrid phase");
        };
        assert!(
            h.switched_to_grid(),
            "cold clustering must fall back to grid"
        );
    }

    #[test]
    fn hybrid_stays_on_clustering_while_it_hits() {
        let mut engine = uniform_engine(20_000, 2, 32);
        let config = SessionConfig {
            discovery_strategy: DiscoveryStrategy::Hybrid,
            cluster_k0: 8,
            hybrid_switch_after: 4,
            hybrid_min_hit_rate: 0.05,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(33);
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        let proposals = disc.propose(8, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(proposals.len(), 8);
        // Half the proposals relevant (hit rate 0.5 >> 0.05), the rest
        // irrelevant so zooming keeps the cluster queue non-empty.
        for (i, p) in proposals.iter().enumerate() {
            disc.feedback(p.token.unwrap(), i % 2 == 0);
        }
        assert!(disc.pending_areas() > 0, "zoom should refill the queue");
        let _ = disc.propose(2, &mut engine, &Exclusions::none(), &mut rng);
        let DiscoveryPhase::Hybrid(h) = &disc else {
            panic!("expected hybrid phase");
        };
        assert!(
            !h.switched_to_grid(),
            "a warm hit rate must keep the clustering strategy active"
        );
    }

    #[test]
    fn cluster_discovery_samples_dense_areas_first() {
        // Two dense blobs + sparse background.
        let mut rng = Xoshiro256pp::seed_from_u64(15);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let mut data = Vec::new();
        for _ in 0..4_500 {
            let (cx, cy) = if rng.chance(0.5) {
                (20.0, 20.0)
            } else {
                (80.0, 70.0)
            };
            data.push(cx + rng.uniform(-4.0, 4.0));
            data.push(cy + rng.uniform(-4.0, 4.0));
        }
        for _ in 0..500 {
            data.push(rng.uniform(0.0, 100.0));
            data.push(rng.uniform(0.0, 100.0));
        }
        let n = data.len() / 2;
        let view = NumericView::new(mapper, data, (0..n as u32).collect());
        let mut engine = ExtractionEngine::new(view, IndexKind::Grid);
        let config = SessionConfig {
            discovery_strategy: DiscoveryStrategy::Clustering,
            cluster_k0: 8,
            ..SessionConfig::default()
        };
        let mut disc = DiscoveryPhase::new(&config, &engine, &mut rng);
        assert_eq!(disc.pending_areas(), 8);
        let proposals = disc.propose(8, &mut engine, &Exclusions::none(), &mut rng);
        assert_eq!(proposals.len(), 8);
        // Most proposals land inside the two blobs.
        let in_blobs = proposals
            .iter()
            .filter(|p| {
                let p = &p.sample.point;
                (p[0] - 20.0).abs() < 10.0 && (p[1] - 20.0).abs() < 10.0
                    || (p[0] - 80.0).abs() < 10.0 && (p[1] - 70.0).abs() < 10.0
            })
            .count();
        // The blobs cover ~5% of the space, so uniform placement would
        // land ~0.4 of 8 proposals there; clustering concentrates half or
        // more of the sampling areas on the mass.
        assert!(in_blobs >= 4, "only {in_blobs}/8 proposals in dense areas");
    }
}
