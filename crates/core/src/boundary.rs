//! Phase 3 — boundary exploitation (paper §5).
//!
//! Once the tree has carved out relevant hyper-rectangles, this phase
//! refines their 2d faces by sampling thin slabs (±x, the paper uses
//! x = 1 normalized) around each boundary. Its budget is capped at α_max
//! because imprecise boundaries cost far less F-measure than an
//! undiscovered area (§2.4).
//!
//! Implements all four §5.2 optimizations:
//!
//! * **adaptive sample size** — a face's allocation scales with how much
//!   that boundary moved between consecutive trees (unstable boundaries
//!   earn more samples), plus an error floor `er` for every face;
//! * **non-overlapping sampling areas** — slabs that mostly re-cover the
//!   previous iteration's slabs are skipped;
//! * **irrelevant-attribute domain sampling** — the non-boundary
//!   dimensions are sampled over their whole domain so spurious split
//!   attributes can be unlearned;
//! * the whole phase runs against whatever view the engine wraps, which
//!   is how the *sampled-dataset* optimization plugs in.

use aide_index::{Exclusions, ExtractionEngine, Sample};
use aide_util::geom::Rect;
use aide_util::rng::Xoshiro256pp;

use crate::config::SessionConfig;

/// Outcome of one boundary-exploitation round.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryOutcome {
    /// Extracted samples to show the user.
    pub samples: Vec<Sample>,
    /// Extraction queries issued.
    pub queries: u64,
    /// The sampling slabs used this round (kept for the next round's
    /// non-overlap check).
    pub slabs: Vec<Rect>,
}

/// Per-face sample allocation under the adaptive policy (§5.2):
///
/// `T_boundary = Σ_j pc_j · α_max/(k·2d) + er · (k·2d)`
///
/// where `pc_j` is the boundary's movement between the previous and
/// current tree normalized by `boundary_change_scale` (a face that moved
/// by the full scale — or a brand-new face — earns its whole share).
fn face_allocation(config: &SessionConfig, movement: Option<f64>, faces_total: usize) -> usize {
    let base = config.boundary_alpha_max as f64 / faces_total as f64;
    if !config.adaptive_boundary {
        return (base.round() as usize).max(1);
    }
    let pc = match movement {
        // New area (no matching previous region): fully uncertain.
        None => 1.0,
        Some(delta) => (delta / config.boundary_change_scale).clamp(0.0, 1.0),
    };
    (pc * base).round() as usize + config.boundary_error_floor
}

/// Finds, for each current region, the previous region with the largest
/// overlap (if any) — the paper's mapping from modified split rules to
/// area boundaries.
fn match_previous<'a>(current: &Rect, previous: &'a [Rect]) -> Option<&'a Rect> {
    previous
        .iter()
        .map(|p| (p, current.overlap_fraction(p)))
        .filter(|&(_, f)| f > 0.0)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite overlap"))
        .map(|(p, _)| p)
}

/// Runs the boundary-exploitation phase over the tree's current relevant
/// `regions`. `previous_regions` / `previous_slabs` come from the last
/// round; `budget` caps total samples (α_max is applied on top).
#[allow(clippy::too_many_arguments)]
pub fn exploit_boundaries(
    config: &SessionConfig,
    regions: &[Rect],
    previous_regions: &[Rect],
    previous_slabs: &[Rect],
    budget: usize,
    engine: &mut ExtractionEngine,
    excluded: &Exclusions,
    rng: &mut Xoshiro256pp,
) -> BoundaryOutcome {
    let mut outcome = BoundaryOutcome {
        samples: Vec::new(),
        queries: 0,
        slabs: Vec::new(),
    };
    if regions.is_empty() || budget == 0 || config.boundary_alpha_max == 0 {
        return outcome;
    }
    let dims = regions[0].dims();
    let bounds = Rect::full_domain(dims);
    let x = config.boundary_x;
    let faces_total = regions.len() * 2 * dims;
    let mut remaining = budget.min(config.boundary_alpha_max);
    let before = engine.stats().queries;

    // Every face's slab and allocation is pure in the phase inputs (the
    // non-overlap check only consults the *previous* round's slabs), so
    // enumerate all candidate faces first and batch the extraction
    // queries instead of looping over `sample_in_excluding`.
    let mut candidates: Vec<(Rect, usize)> = Vec::new();
    for region in regions {
        let prev = match_previous(region, previous_regions);
        for d in 0..dims {
            for (is_high, b) in [(false, region.lo(d)), (true, region.hi(d))] {
                // Skip faces flush against the domain edge: there is
                // nothing beyond them to refine.
                if (!is_high && b <= bounds.lo(d)) || (is_high && b >= bounds.hi(d)) {
                    continue;
                }
                // Movement of this boundary since the previous tree.
                let movement = prev.map(|p| {
                    let pb = if is_high { p.hi(d) } else { p.lo(d) };
                    (b - pb).abs()
                });
                let alloc = face_allocation(config, movement, faces_total);
                if alloc == 0 {
                    continue;
                }
                // The sampling slab: dimension d pinched to [b-x, b+x];
                // other dimensions either the whole domain (irrelevant-
                // attribute identification) or the region's extent.
                let slab_base = if config.domain_sampling {
                    bounds.clone()
                } else {
                    region.clone()
                };
                let slab =
                    slab_base.with_dim(d, (b - x).max(bounds.lo(d)), (b + x).min(bounds.hi(d)));
                // Non-overlapping optimization: skip slabs the previous
                // round already covered.
                if config.nonoverlap_boundary
                    && previous_slabs
                        .iter()
                        .any(|p| slab.overlap_fraction(p) >= config.nonoverlap_threshold)
                {
                    continue;
                }
                candidates.push((slab, alloc));
            }
        }
    }

    if engine.tracer().is_enabled() {
        use aide_util::trace::Value;
        engine.tracer().emit_scoped(
            "boundary_plan",
            vec![
                ("regions", Value::from(regions.len())),
                ("faces", Value::from(faces_total)),
                ("candidates", Value::from(candidates.len())),
                ("budget", Value::from(remaining)),
            ],
        );
    }

    // Budget-bounded waves over the candidate faces (same scheme as the
    // misclassified phase): each wave is the optimistic maximum-
    // consumption prefix, so every wave member is a face the serial loop
    // would also have queried — identical queries and slab list, zero
    // over-query. Selection follows the same discipline as the
    // misclassified phase: settle each face's take from the RNG-free
    // candidate counts, then select every face in parallel on pre-split
    // RNG streams.
    let mut next = 0;
    while remaining > 0 && next < candidates.len() {
        let mut opt = remaining;
        let mut end = next;
        while end < candidates.len() && opt > 0 {
            opt -= candidates[end].1.min(opt);
            end += 1;
        }
        let rects: Vec<Rect> = candidates[next..end]
            .iter()
            .map(|(slab, _)| slab.clone())
            .collect();
        let outputs = engine.query_batch_outputs(&rects);
        let mut wants = Vec::with_capacity(outputs.len());
        for ((slab, alloc), out) in candidates[next..end].iter().zip(&outputs) {
            let take = (*alloc)
                .min(remaining)
                .min(engine.count_candidates(out, excluded));
            wants.push(take);
            remaining -= take;
            outcome.slabs.push(slab.clone());
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

    fn region() -> Rect {
        Rect::new(vec![40.0, 40.0], vec![50.0, 48.0])
    }

    #[test]
    fn samples_lie_in_boundary_slabs() {
        let mut eng = engine(100_000, 1);
        let config = SessionConfig {
            adaptive_boundary: false,
            nonoverlap_boundary: false,
            boundary_alpha_max: 16,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let out = exploit_boundaries(
            &config,
            &[region()],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert!(!out.samples.is_empty());
        assert!(out.samples.len() <= 16, "α_max respected");
        // Every sample is within x = 1 of some face of the region.
        for s in &out.samples {
            let near_face = (s.point[0] - 40.0).abs() <= 1.0
                || (s.point[0] - 50.0).abs() <= 1.0
                || (s.point[1] - 40.0).abs() <= 1.0
                || (s.point[1] - 48.0).abs() <= 1.0;
            assert!(near_face, "sample {:?} not near any boundary", s.point);
        }
        // 1 region × 2 dims × 2 sides = 4 slabs (none at domain edges).
        assert_eq!(out.slabs.len(), 4);
        assert_eq!(out.queries, 4);
    }

    #[test]
    fn domain_sampling_spreads_other_dimensions() {
        let mut eng = engine(100_000, 3);
        let config = SessionConfig {
            adaptive_boundary: false,
            nonoverlap_boundary: false,
            domain_sampling: true,
            boundary_alpha_max: 40,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let out = exploit_boundaries(
            &config,
            &[region()],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        // With domain sampling, slabs for dim-0 faces span all of dim 1:
        // some samples near the x-boundaries must fall outside the
        // region's y-extent [40, 48].
        let outside_y = out
            .samples
            .iter()
            .filter(|s| {
                ((s.point[0] - 40.0).abs() <= 1.0 || (s.point[0] - 50.0).abs() <= 1.0)
                    && (s.point[1] < 40.0 || s.point[1] > 48.0)
            })
            .count();
        assert!(outside_y > 0, "domain sampling had no effect");
    }

    #[test]
    fn region_bounded_sampling_stays_inside_region_extent() {
        let mut eng = engine(100_000, 5);
        let config = SessionConfig {
            adaptive_boundary: false,
            nonoverlap_boundary: false,
            domain_sampling: false,
            boundary_alpha_max: 40,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let out = exploit_boundaries(
            &config,
            &[region()],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        for s in &out.samples {
            // Either within the region ±1 in each dimension.
            assert!(s.point[0] >= 39.0 && s.point[0] <= 51.0, "{:?}", s.point);
            assert!(s.point[1] >= 39.0 && s.point[1] <= 49.0, "{:?}", s.point);
        }
    }

    #[test]
    fn adaptive_allocation_shrinks_for_stable_boundaries() {
        let config = SessionConfig {
            boundary_alpha_max: 40,
            boundary_error_floor: 1,
            boundary_change_scale: 2.0,
            ..SessionConfig::default()
        };
        let faces = 4; // 1 region in 2-D
                       // Unchanged boundary: only the error floor.
        assert_eq!(face_allocation(&config, Some(0.0), faces), 1);
        // Fully moved boundary: full share + floor.
        assert_eq!(face_allocation(&config, Some(5.0), faces), 11);
        // Half-scale movement: half share + floor.
        assert_eq!(face_allocation(&config, Some(1.0), faces), 6);
        // New region: treated as fully uncertain.
        assert_eq!(face_allocation(&config, None, faces), 11);
        // Fixed policy ignores movement.
        let fixed = SessionConfig {
            adaptive_boundary: false,
            ..config
        };
        assert_eq!(face_allocation(&fixed, Some(0.0), faces), 10);
    }

    #[test]
    fn nonoverlap_skips_repeated_slabs() {
        let mut eng = engine(50_000, 7);
        let config = SessionConfig {
            adaptive_boundary: false,
            nonoverlap_boundary: true,
            boundary_alpha_max: 16,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let first = exploit_boundaries(
            &config,
            &[region()],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert_eq!(first.slabs.len(), 4);
        // Same regions next round: every slab repeats ⇒ all skipped.
        let second = exploit_boundaries(
            &config,
            &[region()],
            &[region()],
            &first.slabs,
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert!(second.slabs.is_empty(), "overlapping slabs were re-sampled");
        assert!(second.samples.is_empty());
    }

    #[test]
    fn domain_edge_faces_are_skipped() {
        let mut eng = engine(50_000, 9);
        let config = SessionConfig {
            adaptive_boundary: false,
            nonoverlap_boundary: false,
            boundary_alpha_max: 16,
            ..SessionConfig::default()
        };
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        // Region flush against the lo edge of both dimensions.
        let r = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        let out = exploit_boundaries(
            &config,
            &[r],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert_eq!(out.slabs.len(), 2, "only the two interior faces sampled");
    }

    #[test]
    fn empty_regions_or_budget_is_a_no_op() {
        let mut eng = engine(1_000, 11);
        let config = SessionConfig::default();
        let mut rng = Xoshiro256pp::seed_from_u64(12);
        let out = exploit_boundaries(
            &config,
            &[],
            &[],
            &[],
            100,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert!(out.samples.is_empty());
        let out = exploit_boundaries(
            &config,
            &[region()],
            &[],
            &[],
            0,
            &mut eng,
            &Exclusions::none(),
            &mut rng,
        );
        assert!(out.samples.is_empty());
        assert_eq!(out.queries, 0);
    }
}
