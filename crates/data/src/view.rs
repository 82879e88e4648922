//! Normalized exploration views.
//!
//! The paper normalizes every exploration attribute to `[0, 100]` so that
//! grid widths, sampling distances (γ, x, y) and area-size classes can be
//! reasoned about uniformly across domains (§3, footnote 2). A
//! [`NumericView`] is the d-dimensional, normalized projection of a table
//! onto the chosen exploration attributes; a [`SpaceMapper`] converts
//! points and rectangles between raw attribute values and normalized
//! coordinates (needed when translating the learned model back into a SQL
//! query over the original columns).
//!
//! # Columnar layout
//!
//! Points are stored as structure-of-arrays *column lanes*: one contiguous
//! `Vec<f64>` per dimension, all of length `len()`. Every rectangle
//! predicate the index layer evaluates — full scans, sorted residual
//! filters, k-d leaf sweeps, grid cell sweeps — runs through the branch-free
//! containment kernel ([`NumericView::scan_rect_into`] and friends), which
//! walks each lane in 64-row chunks accumulating a per-chunk bitmask of
//! `lo <= v && v <= hi` outcomes. The per-dimension inner loop has no
//! data-dependent branches, so the compiler auto-vectorizes it; the emitted
//! indices are still produced in ascending row order and the per-point
//! predicate is the exact same chain of `>=`/`<=` comparisons as
//! [`Rect::contains`], so results are bit-identical to the historical
//! row-major filter loops.
use aide_util::geom::Rect;

/// The raw value range of one attribute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    lo: f64,
    hi: f64,
    /// `hi - lo`, computed once at construction so `normalize` does not
    /// re-derive it (twice) per call. The division by `width` itself is
    /// kept: multiplying by a precomputed `100.0 / width` rounds
    /// differently than `100.0 * (v - lo) / width` and would shift
    /// normalized coordinates by an ulp, breaking the pinned session
    /// fingerprints.
    width: f64,
}

impl Domain {
    /// Creates a domain.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not finite or inverted.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "invalid domain [{lo}, {hi}]"
        );
        Self {
            lo,
            hi,
            width: hi - lo,
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Raw width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Maps a raw value to `[0, 100]`, clamping values outside the domain.
    ///
    /// A zero-width domain maps everything to 0 (the attribute is constant
    /// and carries no exploration signal).
    #[inline]
    pub fn normalize(&self, v: f64) -> f64 {
        if self.width == 0.0 {
            return 0.0;
        }
        (100.0 * (v - self.lo) / self.width).clamp(0.0, 100.0)
    }

    /// Maps a normalized coordinate in `[0, 100]` back to a raw value.
    #[inline]
    pub fn denormalize(&self, t: f64) -> f64 {
        self.lo + self.width * (t / 100.0)
    }
}

/// Bidirectional mapping between raw attribute space and the normalized
/// `[0, 100]^d` exploration space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceMapper {
    attrs: Vec<String>,
    domains: Vec<Domain>,
}

impl SpaceMapper {
    /// Creates a mapper for `attrs` with the given raw domains.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length or are empty.
    pub fn new(attrs: Vec<String>, domains: Vec<Domain>) -> Self {
        assert_eq!(attrs.len(), domains.len(), "attrs/domains length mismatch");
        assert!(!attrs.is_empty(), "a mapper needs at least one attribute");
        Self { attrs, domains }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute names in dimension order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Raw domains in dimension order.
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Normalizes a raw point.
    pub fn normalize_point(&self, raw: &[f64]) -> Vec<f64> {
        assert_eq!(raw.len(), self.dims());
        raw.iter()
            .zip(&self.domains)
            .map(|(&v, d)| d.normalize(v))
            .collect()
    }

    /// Denormalizes a normalized point back to raw attribute values.
    pub fn denormalize_point(&self, norm: &[f64]) -> Vec<f64> {
        assert_eq!(norm.len(), self.dims());
        norm.iter()
            .zip(&self.domains)
            .map(|(&t, d)| d.denormalize(t))
            .collect()
    }

    /// Denormalizes a rectangle from normalized to raw coordinates.
    pub fn denormalize_rect(&self, rect: &Rect) -> Rect {
        assert_eq!(rect.dims(), self.dims());
        Rect::new(
            self.denormalize_point(rect.lo_slice()),
            self.denormalize_point(rect.hi_slice()),
        )
    }

    /// Normalizes a rectangle from raw to normalized coordinates.
    pub fn normalize_rect(&self, rect: &Rect) -> Rect {
        assert_eq!(rect.dims(), self.dims());
        Rect::new(
            self.normalize_point(rect.lo_slice()),
            self.normalize_point(rect.hi_slice()),
        )
    }
}

/// Rows per containment-kernel chunk: one `u64` mask bit per row.
const KERNEL_CHUNK: usize = 64;

/// A normalized, d-dimensional projection of a table.
///
/// Coordinates live in per-dimension column lanes (see the module docs);
/// the row ids map each point back to its source row in the projected
/// table, which is how a sampled object is shown to the user with all its
/// original attributes. When point `i` is row `i` for every `i` (a
/// projection of a whole table, and every generated dataset), no row-id
/// lane is stored.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericView {
    mapper: SpaceMapper,
    /// One contiguous lane per dimension, each of length `len()`.
    lanes: Vec<Vec<f64>>,
    /// Source row of each point; `None` when point `i` is row `i`. Never
    /// the identity, so two views with the same rows compare equal.
    row_ids: Option<Vec<u32>>,
}

impl NumericView {
    /// Creates a view from normalized row-major data, transposing it into
    /// column lanes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the dimensionality or
    /// disagrees with `row_ids.len()`.
    pub fn new(mapper: SpaceMapper, data: Vec<f64>, row_ids: Vec<u32>) -> Self {
        let dims = mapper.dims();
        assert_eq!(data.len() % dims, 0, "ragged point buffer");
        assert_eq!(data.len() / dims, row_ids.len(), "row id count mismatch");
        let n = row_ids.len();
        let lanes = (0..dims)
            .map(|d| (0..n).map(|i| data[i * dims + d]).collect())
            .collect();
        Self::from_lanes(mapper, lanes, row_ids)
    }

    /// Creates a view directly from per-dimension column lanes (no
    /// transpose). This is the native layout: generators and the
    /// `aide-view/1` loader build lanes straight into place. Row ids that
    /// are `0..n` are dropped, not stored.
    ///
    /// # Panics
    ///
    /// Panics if the lane count disagrees with the mapper's dimensionality
    /// or any lane's length disagrees with `row_ids.len()`.
    pub fn from_lanes(mapper: SpaceMapper, lanes: Vec<Vec<f64>>, row_ids: Vec<u32>) -> Self {
        let n = row_ids.len();
        let identity = row_ids.iter().enumerate().all(|(i, &id)| id as usize == i);
        Self::from_parts(mapper, lanes, n, (!identity).then_some(row_ids))
    }

    /// [`NumericView::from_lanes`] for a caller that has already told the
    /// identity apart: `row_ids` is `None` for the ids `0..n`, and
    /// otherwise holds `n` ids that are not `0..n`.
    pub(crate) fn from_parts(
        mapper: SpaceMapper,
        lanes: Vec<Vec<f64>>,
        n: usize,
        row_ids: Option<Vec<u32>>,
    ) -> Self {
        assert_eq!(lanes.len(), mapper.dims(), "lane count mismatch");
        for lane in &lanes {
            assert_eq!(lane.len(), n, "row id count mismatch");
        }
        if let Some(ids) = &row_ids {
            assert_eq!(ids.len(), n, "row id count mismatch");
            debug_assert!(
                ids.iter().enumerate().any(|(i, &id)| id as usize != i),
                "identity row ids stored"
            );
        }
        Self {
            mapper,
            lanes,
            row_ids,
        }
    }

    /// This view with its row ids stored as a lane even when they are
    /// `0..n`: the representation that [`NumericView::from_lanes`] never
    /// builds, for tests that compare the two.
    #[cfg(test)]
    pub(crate) fn with_stored_row_ids(mut self) -> Self {
        self.row_ids = Some(self.row_ids().collect());
        self
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        // A mapper has at least one attribute, so lane 0 exists.
        self.lanes[0].len()
    }

    /// Whether the view has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.mapper.dims()
    }

    /// Coordinate of point `i` along dimension `d`.
    #[inline]
    pub fn coord(&self, i: usize, d: usize) -> f64 {
        self.lanes[d][i]
    }

    /// The full column lane of dimension `d`.
    #[inline]
    pub fn lane(&self, d: usize) -> &[f64] {
        &self.lanes[d]
    }

    /// The normalized point at index `i`, gathered from the lanes into a
    /// fresh vector. Hot loops should prefer [`NumericView::coord`] /
    /// [`NumericView::fill_point`], which do not allocate.
    pub fn point_vec(&self, i: usize) -> Vec<f64> {
        self.lanes.iter().map(|lane| lane[i]).collect()
    }

    /// Gathers point `i` into `out` (a reusable buffer of length `dims`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dims()`.
    #[inline]
    pub fn fill_point(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.lanes.len(), "point buffer dims mismatch");
        for (slot, lane) in out.iter_mut().zip(&self.lanes) {
            *slot = lane[i];
        }
    }

    /// Appends point `i`'s coordinates to `out` in dimension order.
    pub fn push_point_into(&self, i: usize, out: &mut Vec<f64>) {
        out.extend(self.lanes.iter().map(|lane| lane[i]));
    }

    /// The source-table row of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_id(&self, i: usize) -> u32 {
        match &self.row_ids {
            Some(ids) => ids[i],
            None => {
                assert!(i < self.len(), "point {i} past a view of {}", self.len());
                i as u32
            }
        }
    }

    /// All source-table rows in view order.
    pub fn row_ids(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        (0..self.len()).map(|i| self.row_id(i))
    }

    /// The stored row-id lane, or `None` when point `i` is row `i` and no
    /// lane is stored.
    pub fn stored_row_ids(&self) -> Option<&[u32]> {
        self.row_ids.as_deref()
    }

    /// The raw↔normalized mapper for this view.
    pub fn mapper(&self) -> &SpaceMapper {
        &self.mapper
    }

    /// The branch-free containment kernel: appends to `out` the indices of
    /// every row in `[start, end)` lying inside `rect`, in ascending order.
    ///
    /// Rows are processed in chunks of 64; each dimension's lane segment is
    /// swept with a branchless `(v >= lo) & (v <= hi)` accumulation into a
    /// per-chunk bitmask, and surviving bits are emitted lowest-first. The
    /// per-point predicate is exactly [`Rect::contains`]'s comparison chain
    /// — pure comparisons, no float arithmetic — so the emitted set and
    /// order match the historical row-major filter bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if the rect's dimensionality disagrees with the view's or the
    /// range is out of bounds.
    pub fn scan_rect_into(&self, rect: &Rect, start: usize, end: usize, out: &mut Vec<u32>) {
        assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        let mut base = start;
        while base < end {
            let chunk = (end - base).min(KERNEL_CHUNK);
            let mut mask = self.chunk_mask(rect, base, chunk);
            while mask != 0 {
                let j = mask.trailing_zeros() as usize;
                out.push((base + j) as u32);
                mask &= mask - 1;
            }
            base += chunk;
        }
    }

    /// Mask form of [`NumericView::scan_rect_into`]: appends one word per
    /// 64 rows of `[start, end)`, bit `j` of a word set iff its row `j`
    /// lies inside `rect`; the last word's bits past `end` are clear.
    pub fn mask_rect_into(&self, rect: &Rect, start: usize, end: usize, out: &mut Vec<u64>) {
        assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        out.extend(
            (start..end)
                .step_by(KERNEL_CHUNK)
                .map(|base| self.chunk_mask(rect, base, (end - base).min(KERNEL_CHUNK))),
        );
    }

    /// Counting twin of [`NumericView::scan_rect_into`]: number of rows in
    /// `[start, end)` inside `rect`, without materializing indices.
    pub fn count_rect(&self, rect: &Rect, start: usize, end: usize) -> usize {
        assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        assert!(start <= end && end <= self.len(), "row range out of bounds");
        let mut count = 0usize;
        let mut base = start;
        while base < end {
            let chunk = (end - base).min(KERNEL_CHUNK);
            count += self.chunk_mask(rect, base, chunk).count_ones() as usize;
            base += chunk;
        }
        count
    }

    /// Containment bitmask of the `chunk` rows starting at `base`: bit `j`
    /// set iff row `base + j` lies inside `rect`.
    #[inline]
    fn chunk_mask(&self, rect: &Rect, base: usize, chunk: usize) -> u64 {
        debug_assert!(chunk >= 1 && chunk <= KERNEL_CHUNK);
        let mut mask = if chunk == KERNEL_CHUNK {
            u64::MAX
        } else {
            (1u64 << chunk) - 1
        };
        for (d, lane) in self.lanes.iter().enumerate() {
            let (lo, hi) = (rect.lo(d), rect.hi(d));
            let seg = &lane[base..base + chunk];
            let mut m = 0u64;
            for (j, &v) in seg.iter().enumerate() {
                m |= (((v >= lo) & (v <= hi)) as u64) << j;
            }
            mask &= m;
            if mask == 0 {
                break;
            }
        }
        mask
    }

    /// Whether point `i` lies inside `rect`, evaluated branch-free across
    /// dimensions. Identical predicate to [`Rect::contains`] on the
    /// gathered point.
    #[inline]
    pub fn contains_index(&self, rect: &Rect, i: usize) -> bool {
        debug_assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        let mut ok = true;
        for (d, lane) in self.lanes.iter().enumerate() {
            let v = lane[i];
            ok &= (v >= rect.lo(d)) & (v <= rect.hi(d));
        }
        ok
    }

    /// Scattered-candidate form of the kernel, as the grid's cut cells
    /// use it: appends one word per 64 candidates, bit `j` of a word set
    /// iff its candidate `j` lies inside `rect`, so the members keep
    /// **candidate order**. Branch-free: every candidate's test is or-ed
    /// in.
    pub fn mask_indices_into(&self, rect: &Rect, candidates: &[u32], out: &mut Vec<u64>) {
        assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        out.extend(candidates.chunks(KERNEL_CHUNK).map(|chunk| {
            chunk.iter().enumerate().fold(0u64, |word, (j, &i)| {
                word | (self.contains_index(rect, i as usize) as u64) << j
            })
        }));
    }

    /// Counting twin of [`NumericView::mask_indices_into`].
    pub fn count_indices(&self, rect: &Rect, candidates: &[u32]) -> usize {
        assert_eq!(rect.dims(), self.dims(), "query dimensionality mismatch");
        candidates
            .iter()
            .filter(|&&i| self.contains_index(rect, i as usize))
            .count()
    }

    /// Indices of all points inside `rect`, in ascending order.
    pub fn indices_in(&self, rect: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        self.scan_rect_into(rect, 0, self.len(), &mut out);
        out.into_iter().map(|i| i as usize).collect()
    }

    /// Counts points inside `rect` without materializing indices.
    pub fn count_in(&self, rect: &Rect) -> usize {
        self.count_rect(rect, 0, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_util::rng::{Rng, Xoshiro256pp};

    #[test]
    fn domain_normalization_round_trips() {
        let d = Domain::new(-50.0, 150.0);
        assert_eq!(d.normalize(-50.0), 0.0);
        assert_eq!(d.normalize(150.0), 100.0);
        assert_eq!(d.normalize(50.0), 50.0);
        // Clamping.
        assert_eq!(d.normalize(-100.0), 0.0);
        assert_eq!(d.normalize(1000.0), 100.0);
        // Round trip.
        let raw = 37.25;
        assert!((d.denormalize(d.normalize(raw)) - raw).abs() < 1e-9);
    }

    #[test]
    fn hoisted_width_is_value_identical_to_recomputed_width() {
        // The hoisted `width` field must not shift normalization by even
        // an ulp: it stores exactly `hi - lo`, the same expression the
        // old code evaluated per call.
        for (lo, hi) in [(-50.0, 150.0), (0.3, 0.7), (1e-12, 3e12), (-7.5, -7.1)] {
            let d = Domain::new(lo, hi);
            assert_eq!(d.width().to_bits(), (hi - lo).to_bits());
            for t in [lo, hi, 0.0, 0.123456789, hi * 0.731] {
                let want = (100.0 * (t - lo) / (hi - lo)).clamp(0.0, 100.0);
                assert_eq!(d.normalize(t).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn zero_width_domain_is_constant() {
        let d = Domain::new(5.0, 5.0);
        assert_eq!(d.normalize(5.0), 0.0);
        assert_eq!(d.normalize(99.0), 0.0);
        assert_eq!(d.denormalize(0.0), 5.0);
    }

    fn mapper2() -> SpaceMapper {
        SpaceMapper::new(
            vec!["age".into(), "dosage".into()],
            vec![Domain::new(0.0, 40.0), Domain::new(0.0, 15.0)],
        )
    }

    #[test]
    fn mapper_point_and_rect_round_trip() {
        let m = mapper2();
        let raw = vec![20.0, 7.5];
        let norm = m.normalize_point(&raw);
        assert_eq!(norm, vec![50.0, 50.0]);
        assert_eq!(m.denormalize_point(&norm), raw);

        let r = Rect::new(vec![25.0, 0.0], vec![50.0, 100.0]);
        let raw_r = m.denormalize_rect(&r);
        assert_eq!(raw_r, Rect::new(vec![10.0, 0.0], vec![20.0, 15.0]));
        assert_eq!(m.normalize_rect(&raw_r), r);
    }

    #[test]
    fn view_points_and_rect_queries() {
        let m = mapper2();
        // Three normalized points.
        let data = vec![10.0, 10.0, 50.0, 50.0, 90.0, 90.0];
        let view = NumericView::new(m, data, vec![0, 1, 2]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.dims(), 2);
        assert_eq!(view.point_vec(1), vec![50.0, 50.0]);
        assert_eq!(view.coord(1, 1), 50.0);
        assert_eq!(view.row_id(2), 2);
        let rect = Rect::new(vec![0.0, 0.0], vec![60.0, 60.0]);
        assert_eq!(view.indices_in(&rect), vec![0, 1]);
        assert_eq!(view.count_in(&rect), 2);
    }

    #[test]
    fn row_major_and_lane_constructors_agree() {
        let m = mapper2();
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let by_rows = NumericView::new(m.clone(), data, vec![7, 8, 9]);
        let by_lanes = NumericView::from_lanes(
            m,
            vec![vec![1.0, 3.0, 5.0], vec![2.0, 4.0, 6.0]],
            vec![7, 8, 9],
        );
        assert_eq!(by_rows, by_lanes);
        assert_eq!(by_rows.lane(0), &[1.0, 3.0, 5.0]);
        let mut buf = vec![0.0; 2];
        by_rows.fill_point(2, &mut buf);
        assert_eq!(buf, vec![5.0, 6.0]);
        let mut pushed = vec![9.9];
        by_rows.push_point_into(0, &mut pushed);
        assert_eq!(pushed, vec![9.9, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged point buffer")]
    fn ragged_buffer_panics() {
        NumericView::new(mapper2(), vec![1.0, 2.0, 3.0], vec![0]);
    }

    #[test]
    #[should_panic(expected = "row id count mismatch")]
    fn ragged_lanes_panic() {
        NumericView::from_lanes(mapper2(), vec![vec![1.0, 2.0], vec![3.0]], vec![0, 1]);
    }

    /// Row-major reference filter: what `indices_in` did before the
    /// columnar kernel existed.
    fn reference_filter(view: &NumericView, rect: &Rect) -> Vec<u32> {
        (0..view.len())
            .filter(|&i| rect.contains(&view.point_vec(i)))
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn kernel_matches_reference_filter_across_chunk_boundaries() {
        // Lengths straddling the 64-row chunk width, including 0 and 1.
        for n in [0usize, 1, 3, 63, 64, 65, 127, 128, 130, 257] {
            for dims in [1usize, 2, 5] {
                let mut rng = Xoshiro256pp::seed_from_u64((n * 31 + dims) as u64);
                let mapper = SpaceMapper::new(
                    (0..dims).map(|d| format!("a{d}")).collect(),
                    vec![Domain::new(0.0, 100.0); dims],
                );
                let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
                let view = NumericView::new(mapper, data, (0..n as u32).collect());
                for rect in [
                    Rect::new(vec![20.0; dims], vec![70.0; dims]),
                    Rect::full_domain(dims),
                    Rect::new(vec![99.0; dims], vec![99.0; dims]),
                ] {
                    let want = reference_filter(&view, &rect);
                    let mut got = Vec::new();
                    view.scan_rect_into(&rect, 0, n, &mut got);
                    assert_eq!(got, want, "n={n} dims={dims}");
                    assert_eq!(view.count_rect(&rect, 0, n), want.len());
                    // Sub-ranges agree with the reference restricted to them.
                    let (start, end) = (n / 3, n - n / 4);
                    let mut part = Vec::new();
                    view.scan_rect_into(&rect, start, end, &mut part);
                    let want_part: Vec<u32> = want
                        .iter()
                        .copied()
                        .filter(|&i| (i as usize) >= start && (i as usize) < end)
                        .collect();
                    assert_eq!(part, want_part, "n={n} dims={dims} range");
                    assert_eq!(view.count_rect(&rect, start, end), want_part.len());
                }
            }
        }
    }

    #[test]
    fn mask_indices_preserves_candidate_order() {
        let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 100.0)]);
        let data = vec![5.0, 15.0, 25.0, 35.0, 45.0];
        let view = NumericView::new(mapper, data, (0..5).collect());
        let rect = Rect::new(vec![10.0], vec![40.0]);
        // Bit `j` answers for candidate `j`, whatever the candidate order.
        let candidates = vec![4u32, 1, 3, 0, 2];
        let mut out = Vec::new();
        view.mask_indices_into(&rect, &candidates, &mut out);
        assert_eq!(out, vec![0b10110]);
        assert_eq!(view.count_indices(&rect, &candidates), 3);
        assert!(view.contains_index(&rect, 2));
        assert!(!view.contains_index(&rect, 4));
        // 130 candidates fill two words and the low two bits of a third.
        let many: Vec<u32> = (0..130).map(|j| [1u32, 4][j % 2]).collect();
        out.clear();
        view.mask_indices_into(&rect, &many, &mut out);
        let alternate = 0x5555_5555_5555_5555u64;
        assert_eq!(out, vec![alternate, alternate, 0b01]);
    }
}
