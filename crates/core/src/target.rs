//! Target queries and the simulated user.
//!
//! The paper evaluates AIDE against *target queries*: range queries whose
//! result set is the ground-truth relevant object set (§6.1). A target is
//! a union of axis-aligned relevant areas in the normalized space, graded
//! by size class (small/medium/large = 1–3 % / 4–6 % / 7–9 % per-dimension
//! width) and by the number of disjoint areas (1, 3, 5, 7).
//!
//! The simulated user labels a sample relevant iff it falls inside the
//! target (binary, noise-free relevance feedback, §2.1), exactly as the
//! paper's user simulation does.

use std::cmp::Ordering;

use aide_data::NumericView;
use aide_util::geom::{any_contains, Rect};
use aide_util::rng::Rng;

/// Relevant-area size classes from the paper's workload taxonomy (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// 1–3 % of each dimension's normalized domain.
    Small,
    /// 4–6 %.
    Medium,
    /// 7–9 %.
    Large,
}

impl SizeClass {
    /// The per-dimension width range (normalized units).
    pub fn width_range(self) -> (f64, f64) {
        match self {
            SizeClass::Small => (1.0, 3.0),
            SizeClass::Medium => (4.0, 6.0),
            SizeClass::Large => (7.0, 9.0),
        }
    }

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }
}

/// A ground-truth user interest: the union of `areas` (normalized space).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetQuery {
    areas: Vec<Rect>,
    dims: usize,
}

impl TargetQuery {
    /// Creates a target from explicit areas.
    ///
    /// # Panics
    ///
    /// Panics if `areas` is empty or dimensionalities disagree.
    pub fn new(areas: Vec<Rect>) -> Self {
        assert!(!areas.is_empty(), "a target needs at least one area");
        let dims = areas[0].dims();
        assert!(
            areas.iter().all(|r| r.dims() == dims),
            "mixed dimensionalities in target areas"
        );
        Self { areas, dims }
    }

    /// Generates `num_areas` disjoint relevant areas of the given size
    /// class, each *anchored on an actual data point* drawn from `view` so
    /// that every area is non-empty regardless of skew. Only the first
    /// `relevant_dims` dimensions are constrained; the rest span their
    /// whole domain (the paper's ≥3-D experiments use targets with
    /// conjunctions on two attributes, §6.3).
    ///
    /// # Panics
    ///
    /// Panics if `view` is empty, `relevant_dims` is zero or exceeds the
    /// view's dimensionality, or disjoint placement fails after many
    /// retries (the space is too crowded for the request).
    pub fn generate<R: Rng + ?Sized>(
        view: &NumericView,
        num_areas: usize,
        size_class: SizeClass,
        relevant_dims: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_areas > 0, "at least one area");
        assert!(!view.is_empty(), "cannot anchor targets in an empty view");
        let dims = view.dims();
        assert!(
            relevant_dims > 0 && relevant_dims <= dims,
            "relevant_dims {relevant_dims} out of range for {dims}-D view"
        );
        let (w_lo, w_hi) = size_class.width_range();
        let bounds = Rect::full_domain(dims);
        let mut areas: Vec<Rect> = Vec::with_capacity(num_areas);
        let mut attempts = 0usize;
        while areas.len() < num_areas {
            attempts += 1;
            assert!(
                attempts < 10_000,
                "could not place {num_areas} disjoint {size_class:?} areas"
            );
            let anchor = view.point_vec(rng.index(view.len()));
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for (d, &center) in anchor.iter().enumerate() {
                if d < relevant_dims {
                    let width = rng.uniform(w_lo, w_hi);
                    lo.push((center - width / 2.0).max(0.0));
                    hi.push((center + width / 2.0).min(100.0));
                } else {
                    lo.push(0.0);
                    hi.push(100.0);
                }
            }
            let rect = Rect::new(lo, hi);
            // Keep areas disjoint with a one-unit margin so boundaries of
            // different areas never merge.
            let padded = rect.expanded(1.0, &bounds);
            if areas.iter().all(|a| !a.intersects(&padded)) {
                areas.push(rect);
            }
        }
        Self { areas, dims }
    }

    /// Like [`TargetQuery::generate`] but with anchors drawn uniformly
    /// from the *space* rather than from the data, so areas land in
    /// sparse regions as often as in dense ones (only non-empty areas are
    /// kept). This is the HalfSkew workload of §6.4, whose "queries cover
    /// both sparse and dense areas".
    pub fn generate_spread<R: Rng + ?Sized>(
        view: &NumericView,
        num_areas: usize,
        size_class: SizeClass,
        relevant_dims: usize,
        rng: &mut R,
    ) -> Self {
        assert!(num_areas > 0, "at least one area");
        assert!(!view.is_empty(), "cannot place targets over an empty view");
        let dims = view.dims();
        assert!(
            relevant_dims > 0 && relevant_dims <= dims,
            "relevant_dims {relevant_dims} out of range for {dims}-D view"
        );
        let (w_lo, w_hi) = size_class.width_range();
        let bounds = Rect::full_domain(dims);
        let mut areas: Vec<Rect> = Vec::with_capacity(num_areas);
        let mut attempts = 0usize;
        while areas.len() < num_areas {
            attempts += 1;
            assert!(
                attempts < 100_000,
                "could not place {num_areas} disjoint non-empty {size_class:?} areas"
            );
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for d in 0..dims {
                if d < relevant_dims {
                    let width = rng.uniform(w_lo, w_hi);
                    let center = rng.uniform(0.0, 100.0);
                    lo.push((center - width / 2.0).max(0.0));
                    hi.push((center + width / 2.0).min(100.0));
                } else {
                    lo.push(0.0);
                    hi.push(100.0);
                }
            }
            let rect = Rect::new(lo, hi);
            if view.count_in(&rect) == 0 {
                continue; // an empty area has no ground truth to learn
            }
            let padded = rect.expanded(1.0, &bounds);
            if areas.iter().all(|a| !a.intersects(&padded)) {
                areas.push(rect);
            }
        }
        Self { areas, dims }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The relevant areas.
    pub fn areas(&self) -> &[Rect] {
        &self.areas
    }

    /// Ground-truth relevance of a normalized point.
    #[inline]
    pub fn contains(&self, point: &[f64]) -> bool {
        any_contains(&self.areas, point)
    }

    /// Ground-truth relevance shared by every point of a set that is known
    /// only through `compare` (the contract of
    /// [`DecisionTree::block_label`](aide_ml::DecisionTree::block_label)):
    /// `Some(true)` if some area holds every point, `Some(false)` if every
    /// area excludes every point, `None` otherwise.
    ///
    /// Areas are closed, so a set lies inside one if on every dimension
    /// its points compare `Greater`/`Equal` with `lo` and `Less`/`Equal`
    /// with `hi`, and outside it if on some dimension they compare `Less`
    /// with `lo` or `Greater` with `hi`.
    pub fn block_contains(&self, compare: impl Fn(usize, f64) -> Option<Ordering>) -> Option<bool> {
        let mut excluded = true;
        for area in &self.areas {
            let mut inside = true;
            let mut outside = false;
            for d in 0..self.dims {
                let lo = compare(d, area.lo(d));
                let hi = compare(d, area.hi(d));
                if lo == Some(Ordering::Less) || hi == Some(Ordering::Greater) {
                    outside = true;
                    break;
                }
                inside &= matches!(lo, Some(Ordering::Greater | Ordering::Equal))
                    && matches!(hi, Some(Ordering::Less | Ordering::Equal));
            }
            if outside {
                continue;
            }
            if inside {
                return Some(true);
            }
            excluded = false;
        }
        if excluded {
            Some(false)
        } else {
            None
        }
    }

    /// Number of relevant tuples in a view.
    pub fn count_relevant(&self, view: &NumericView) -> usize {
        let mut p = vec![0.0; view.dims()];
        (0..view.len())
            .filter(|&i| {
                view.fill_point(i, &mut p);
                self.contains(&p)
            })
            .count()
    }
}

/// The simulated user of §6.1: labels objects by target membership and
/// counts how many objects it has reviewed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedUser {
    target: TargetQuery,
    reviewed: usize,
}

impl SimulatedUser {
    /// Creates a user whose true interest is `target`.
    pub fn new(target: TargetQuery) -> Self {
        Self {
            target,
            reviewed: 0,
        }
    }

    /// The underlying target query.
    pub fn target(&self) -> &TargetQuery {
        &self.target
    }

    /// Reviews one object and returns the relevance label.
    pub fn label(&mut self, point: &[f64]) -> bool {
        self.reviewed += 1;
        self.target.contains(point)
    }

    /// Total objects this user has reviewed (the paper's user-effort
    /// metric).
    pub fn reviewed(&self) -> usize {
        self.reviewed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_util::rng::Xoshiro256pp;

    fn uniform_view(n: usize, dims: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            (0..dims).map(|d| format!("a{d}")).collect(),
            vec![Domain::new(0.0, 100.0); dims],
        );
        let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    #[test]
    fn size_class_ranges_match_the_paper() {
        assert_eq!(SizeClass::Small.width_range(), (1.0, 3.0));
        assert_eq!(SizeClass::Medium.width_range(), (4.0, 6.0));
        assert_eq!(SizeClass::Large.width_range(), (7.0, 9.0));
    }

    #[test]
    fn generated_areas_are_disjoint_sized_and_nonempty() {
        let view = uniform_view(20_000, 2, 1);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for &m in &[1usize, 3, 5, 7] {
            let t = TargetQuery::generate(&view, m, SizeClass::Large, 2, &mut rng);
            assert_eq!(t.areas().len(), m);
            for (i, a) in t.areas().iter().enumerate() {
                for d in 0..2 {
                    // Clipping at the domain edge can shrink an area, but
                    // never beyond half its width.
                    assert!(a.width(d) <= 9.0 + 1e-9, "width {}", a.width(d));
                    assert!(a.width(d) >= 3.5 - 1e-9, "width {}", a.width(d));
                }
                for b in &t.areas()[i + 1..] {
                    assert!(!a.intersects(b), "areas overlap");
                }
            }
            assert!(t.count_relevant(&view) > 0, "an area is empty");
        }
    }

    #[test]
    fn extra_dims_span_their_domain() {
        let view = uniform_view(5_000, 4, 3);
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let t = TargetQuery::generate(&view, 2, SizeClass::Medium, 2, &mut rng);
        for a in t.areas() {
            assert_eq!(a.lo(2), 0.0);
            assert_eq!(a.hi(2), 100.0);
            assert_eq!(a.lo(3), 0.0);
            assert_eq!(a.hi(3), 100.0);
            assert!(a.width(0) <= 6.0 + 1e-9);
        }
    }

    #[test]
    fn anchored_targets_are_nonempty_on_skewed_data() {
        // Clustered data: uniform placement would often miss the mass.
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let mut data = Vec::new();
        for _ in 0..5_000 {
            data.push(rng.uniform(40.0, 45.0));
            data.push(rng.uniform(70.0, 75.0));
        }
        let view = NumericView::new(mapper, data, (0..5_000u32).collect());
        let t = TargetQuery::generate(&view, 1, SizeClass::Small, 2, &mut rng);
        assert!(t.count_relevant(&view) > 0);
    }

    #[test]
    fn spread_targets_are_nonempty_and_cover_sparse_space() {
        // Clustered data leaves most of the space sparse; spread anchors
        // must still produce non-empty areas, and over many draws they
        // should land outside the dense blob more often than data-anchored
        // ones do.
        let mut rng = Xoshiro256pp::seed_from_u64(21);
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let mut data = Vec::new();
        // 90% of mass in a 10x10 blob, 10% uniform background.
        for _ in 0..9_000 {
            data.push(rng.uniform(40.0, 50.0));
            data.push(rng.uniform(40.0, 50.0));
        }
        for _ in 0..1_000 {
            data.push(rng.uniform(0.0, 100.0));
            data.push(rng.uniform(0.0, 100.0));
        }
        let n = data.len() / 2;
        let view = NumericView::new(mapper, data, (0..n as u32).collect());
        let blob = Rect::new(vec![38.0, 38.0], vec![52.0, 52.0]);
        let mut outside = 0;
        for s in 0..20u64 {
            let mut r = Xoshiro256pp::seed_from_u64(100 + s);
            let t = TargetQuery::generate_spread(&view, 1, SizeClass::Large, 2, &mut r);
            assert!(t.count_relevant(&view) > 0, "spread target is empty");
            if !blob.intersects(&t.areas()[0]) {
                outside += 1;
            }
        }
        assert!(outside >= 10, "only {outside}/20 spread targets off-blob");
    }

    #[test]
    fn block_contains_is_decided_only_when_every_point_agrees() {
        let target = TargetQuery::new(vec![
            Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]),
            Rect::new(vec![50.0, 50.0], vec![60.0, 60.0]),
        ]);
        // A set known to lie in the closed box [lo, hi].
        let boxed = |lo: [f64; 2], hi: [f64; 2]| {
            target.block_contains(move |d, t| {
                if hi[d] < t {
                    Some(Ordering::Less)
                } else if lo[d] > t {
                    Some(Ordering::Greater)
                } else if lo[d] == t && hi[d] == t {
                    Some(Ordering::Equal)
                } else {
                    None
                }
            })
        };
        assert_eq!(boxed([12.0, 12.0], [18.0, 18.0]), Some(true));
        assert_eq!(boxed([52.0, 52.0], [58.0, 58.0]), Some(true));
        assert_eq!(boxed([30.0, 30.0], [40.0, 40.0]), Some(false));
        assert_eq!(boxed([12.0, 30.0], [18.0, 40.0]), Some(false));
        assert_eq!(boxed([15.0, 15.0], [25.0, 18.0]), None);
        // Points exactly on a closed edge are inside.
        assert_eq!(boxed([10.0, 20.0], [10.0, 20.0]), Some(true));
        assert_eq!(target.block_contains(|_, _| None), None);
    }

    #[test]
    fn user_labels_by_membership_and_counts_reviews() {
        let target = TargetQuery::new(vec![Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])]);
        let mut user = SimulatedUser::new(target);
        assert!(user.label(&[15.0, 15.0]));
        assert!(!user.label(&[50.0, 50.0]));
        assert!(user.label(&[10.0, 10.0])); // closed boundary
        assert_eq!(user.reviewed(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one area")]
    fn empty_target_panics() {
        TargetQuery::new(vec![]);
    }
}
