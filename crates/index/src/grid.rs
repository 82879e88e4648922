//! Equi-width multidimensional grid index.
//!
//! The normalized exploration space `[0, 100]^d` is bucketed into
//! `resolution^d` equal-width cells; each cell holds the view indices of
//! the points it contains. Rectangle queries visit only overlapping cells,
//! and cells entirely inside the query rectangle contribute their points
//! without per-point tests — this is the cheap access path that stands in
//! for the paper's covering index.
//!
//! The cells are stored in CSR form: one `rows` array holding every view
//! index grouped by cell, and `offsets` (one per cell, plus one) marking
//! where each cell's slice starts. Each slice is in ascending view order.
//! `rows` is shared: every [`QueryOutput`] the index returns holds it by
//! reference, and names a cell's slice instead of copying it.

use std::ops::Range;
use std::sync::Arc;

use aide_data::NumericView;
use aide_util::geom::Rect;
use aide_util::par::Pool;

use crate::output::OutputBuilder;
use crate::{CountOutput, QueryOutput, RegionIndex};

/// Grid index over a [`NumericView`]'s normalized points.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIndex {
    dims: usize,
    resolution: usize,
    /// View indices grouped by flat cell id, ascending within each cell;
    /// shared with the query outputs.
    rows: Arc<[u32]>,
    /// `rows[offsets[c]..offsets[c + 1]]` is cell `c`'s slice.
    offsets: Vec<u32>,
}

impl GridIndex {
    /// Maximum total number of cells; the per-dimension resolution is
    /// reduced until `resolution^dims` fits. Keeps high-dimensional
    /// indexes (the paper explores up to 5-D) from exploding.
    const MAX_CELLS: usize = 1 << 20;

    /// Points per chunk of the cell-id pass: each lane's slice of a
    /// chunk is read while the chunk's ids stay in cache.
    const BUILD_CHUNK: usize = 8_192;

    /// Rows per cell the heuristic resolution aims at on large views.
    const ROWS_PER_CELL: usize = 64;

    /// Fewest buckets per dimension at which [`RegionIndex::count`] of a
    /// box counts as cheap (see [`GridIndex::counts_cheaply`]).
    const COUNTING_RESOLUTION: usize = 8;

    /// Builds a grid index with a heuristically chosen resolution (see
    /// [`GridIndex::heuristic_resolution`]). Uses the ambient pool
    /// ([`Pool::from_env`]).
    pub fn build(view: &NumericView) -> Self {
        Self::build_with(view, &Pool::from_env(0))
    }

    /// [`GridIndex::build`] over an explicit worker pool. The index is
    /// identical for any thread count: the parallel pass only computes
    /// and counts cell ids, and the scatter into cells stays in view
    /// order.
    pub fn build_with(view: &NumericView, pool: &Pool) -> Self {
        Self::with_resolution_in(
            view,
            Self::heuristic_resolution(view.len(), view.dims()),
            pool,
        )
    }

    /// The per-dimension resolution [`GridIndex::build`] picks for a view
    /// of `len` points in `dims` dimensions, the larger of two:
    ///
    /// * roughly `len^(1/dims)` buckets, clamped to `[2, 64]`;
    /// * the largest power of two `p` whose `p^dims` cells hold at least
    ///   [`GridIndex::ROWS_PER_CELL`] rows each on average and fit under
    ///   [`GridIndex::MAX_CELLS`].
    ///
    /// The first rules up to about a million rows in 2-D, the second
    /// beyond (128² from 2²⁰ rows, 256² from 2²² rows, so about 153 rows
    /// per cell at 10M). A power of two keeps every edge of a coarser
    /// power-of-two grid on a cell edge. In 3–5 dimensions the cap keeps
    /// the second at or below 64, so the first rules there. The
    /// total-cell cap on the first is applied later and depends only on
    /// `dims`.
    pub(crate) fn heuristic_resolution(len: usize, dims: usize) -> usize {
        let dims = dims.max(1);
        let n = len.max(1) as f64;
        let target = n.powf(1.0 / dims as f64).ceil() as usize;
        let mut p = 1;
        while total_cells(2 * p, dims) <= Self::MAX_CELLS
            && total_cells(2 * p, dims).saturating_mul(Self::ROWS_PER_CELL) <= len
        {
            p *= 2;
        }
        target.clamp(2, 64).max(p)
    }

    /// Builds a grid index with an explicit per-dimension resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 1`.
    pub fn with_resolution(view: &NumericView, resolution: usize) -> Self {
        Self::with_resolution_in(view, resolution, &Pool::serial())
    }

    /// The CSR build, with cell ids stored as `u16` when every id fits
    /// (up to 256² cells in 2-D), which halves the largest buffer the
    /// build holds besides `rows`.
    fn with_resolution_in(view: &NumericView, resolution: usize, pool: &Pool) -> Self {
        assert!(resolution >= 1, "grid resolution must be at least 1");
        let dims = view.dims();
        let mut resolution = resolution;
        while resolution > 1 && total_cells(resolution, dims) > Self::MAX_CELLS {
            resolution -= 1;
        }
        let (rows, offsets) = if total_cells(resolution, dims) <= 1 << 16 {
            Self::csr::<u16>(view, resolution, pool)
        } else {
            Self::csr::<u32>(view, resolution, pool)
        };
        Self {
            dims,
            resolution,
            rows,
            offsets,
        }
    }

    /// `rows` and `offsets`: a parallel pass that maps each part of the
    /// view to cell ids and counts them, a prefix sum over the summed
    /// counts, and a scatter in view order.
    fn csr<Id: CellId>(
        view: &NumericView,
        resolution: usize,
        pool: &Pool,
    ) -> (Arc<[u32]>, Vec<u32>) {
        let cells = total_cells(resolution, view.dims());
        let n = view.len();
        // One part per worker, and none smaller than its cell counts.
        let part = n.div_ceil(pool.threads()).max(Self::BUILD_CHUNK).max(cells);
        let parts: Vec<(Vec<Id>, Vec<u32>)> = pool.par_map_reduce(
            n,
            part,
            |range| Self::cell_ids(view, range, resolution, cells),
            Vec::new(),
            |mut parts, part| {
                parts.push(part);
                parts
            },
        );
        let (ids, counts): (Vec<Vec<Id>>, Vec<Vec<u32>>) = parts.into_iter().unzip();
        let mut offsets = vec![0u32; cells + 1];
        for counts in counts {
            for (total, count) in offsets[1..].iter_mut().zip(counts) {
                *total += count;
            }
        }
        for c in 0..cells {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..cells].to_vec();
        // Built in its `Arc` (an exact-size iterator collects in place;
        // `Arc::from(Vec)` would copy the whole array).
        let mut rows: Arc<[u32]> = std::iter::repeat_n(0, n).collect();
        let slots = Arc::get_mut(&mut rows).expect("a fresh Arc is unique");
        for (i, &c) in ids.iter().flatten().enumerate() {
            let slot = &mut cursor[c.index()];
            slots[*slot as usize] = i as u32;
            *slot += 1;
        }
        (rows, offsets)
    }

    /// The flat cell ids of the points in `range`, and how many of them
    /// fall in each of the `cells` cells. Ids are built lane by lane, one
    /// chunk at a time: a multiply-add per point per lane over
    /// contiguous coordinates, the same fold as [`GridIndex::cell_of`].
    fn cell_ids<Id: CellId>(
        view: &NumericView,
        range: Range<usize>,
        resolution: usize,
        cells: usize,
    ) -> (Vec<Id>, Vec<u32>) {
        let mut ids = vec![Id::default(); range.len()];
        let mut counts = vec![0u32; cells];
        for (k, chunk) in ids.chunks_mut(Self::BUILD_CHUNK).enumerate() {
            let start = range.start + k * Self::BUILD_CHUNK;
            for d in 0..view.dims() {
                let lane = &view.lane(d)[start..start + chunk.len()];
                for (id, &x) in chunk.iter_mut().zip(lane) {
                    *id = Id::new(id.index() * resolution + bucket(x, resolution));
                }
            }
            for &c in chunk.iter() {
                counts[c.index()] += 1;
            }
        }
        (ids, counts)
    }

    /// Per-dimension resolution actually used.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The view indices stored in flat cell `cell`, ascending.
    fn cell(&self, cell: usize) -> &[u32] {
        &self.rows[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }

    /// Flat cell id of point `i`, read lane-by-lane.
    fn cell_of(view: &NumericView, i: usize, resolution: usize) -> usize {
        (0..view.dims()).fold(0, |id, d| {
            id * resolution + bucket(view.coord(i, d), resolution)
        })
    }

    /// Per-dimension bucket range `[lo_bucket, hi_bucket]` overlapping
    /// `[lo, hi]` on the normalized domain.
    fn bucket_range(&self, lo: f64, hi: f64) -> (usize, usize) {
        (bucket(lo, self.resolution), bucket(hi, self.resolution))
    }

    /// Calls `visit(from, rows, full)` for the rows of every non-empty
    /// cell that overlaps `rect`, in ascending flat cell id, where `rows`
    /// is `self.rows[from..]`'s slice for that cell. `full` says every
    /// point the cell can hold lies inside `rect`, so its rows need no
    /// point test; touching full cells may come as one call.
    ///
    /// Whether a bucket lies inside `rect` is decided once per dimension
    /// per query. The float bounds `b·w` and `(b + 1)·w` alone can be
    /// wrong by an ulp: `bucket(59.99999999999999, 5)` is 3 while
    /// `3·20 = 60`. So a bucket must also pass an exact test from bucket
    /// numbers. `bucket` never decreases as `x` grows, so if the
    /// largest value below `lo` falls in a lower bucket than `b`, so does
    /// every value below `lo`, and none of them is in `b`; likewise
    /// above `hi`. The first and last buckets keep the float test alone:
    /// coordinates lie in `[0, 100]`, the domain those ends close.
    fn for_each_cell(&self, rect: &Rect, mut visit: impl FnMut(usize, &[u32], bool)) {
        assert_eq!(rect.dims(), self.dims, "query dimensionality mismatch");
        let r = self.resolution;
        let w = 100.0 / r as f64;
        let ranges: Vec<(usize, usize)> = (0..self.dims)
            .map(|d| self.bucket_range(rect.lo(d), rect.hi(d)))
            .collect();
        // inside[d][b - lo_d]: bucket b of dimension d lies within rect.
        let inside: Vec<Vec<bool>> = ranges
            .iter()
            .enumerate()
            .map(|(d, &(first, last))| {
                let (lo, hi) = (rect.lo(d), rect.hi(d));
                let below = bucket(lo.next_down(), r);
                let above = bucket(hi.next_up(), r);
                (first..=last)
                    .map(|b| {
                        b as f64 * w >= lo
                            && (b + 1) as f64 * w <= hi
                            && (b == 0 || below < b)
                            && (b == r - 1 || above > b)
                    })
                    .collect()
            })
            .collect();
        // whole[d]: dimensions d.. each take every bucket, all inside.
        let mut whole = vec![true; self.dims + 1];
        for d in (0..self.dims).rev() {
            whole[d] = whole[d + 1] && ranges[d] == (0, r - 1) && inside[d].iter().all(|&b| b);
        }
        let walk = Walk {
            grid: self,
            ranges: &ranges,
            inside: &inside,
            whole: &whole,
        };
        walk.descend(0, 0, total_cells(r, self.dims), true, &mut visit);
    }
}

/// One query's descent through [`GridIndex::for_each_cell`]'s cells.
struct Walk<'a> {
    grid: &'a GridIndex,
    ranges: &'a [(usize, usize)],
    inside: &'a [Vec<bool>],
    whole: &'a [bool],
}

impl Walk<'_> {
    /// Visits the `span` cells whose first `d` buckets spell `prefix`.
    /// Flat ids put the first dimension slowest, so those cells are one
    /// span of ids and their rows one slice of the CSR array: an empty
    /// slice is skipped whole, and so is a full one, in one call, without
    /// visiting its cells one by one. Sparse grids (more cells than rows,
    /// as in 12 or 20 dimensions) thus cost about their rows, not their
    /// cells.
    fn descend(
        &self,
        d: usize,
        prefix: usize,
        span: usize,
        full: bool,
        visit: &mut impl FnMut(usize, &[u32], bool),
    ) {
        let g = self.grid;
        let from = g.offsets[prefix * span] as usize;
        let to = g.offsets[(prefix + 1) * span] as usize;
        if from == to {
            return;
        }
        if d == g.dims || (full && self.whole[d]) {
            visit(from, &g.rows[from..to], full);
            return;
        }
        let (first, last) = self.ranges[d];
        let span = span / g.resolution;
        for b in first..=last {
            let full = full && self.inside[d][b - first];
            self.descend(d + 1, prefix * g.resolution + b, span, full, visit);
        }
    }
}

/// The bucket of normalized coordinate `x` among `resolution` equal-width
/// buckets of `[0, 100]`. Never decreases as `x` grows, which is what
/// lets [`GridIndex::for_each_cell`] call a cell full exactly.
pub(crate) fn bucket(x: f64, resolution: usize) -> usize {
    ((x / 100.0 * resolution as f64) as usize).min(resolution - 1)
}

/// A flat cell id as the grid build stores it.
trait CellId: Copy + Default + Send {
    /// Narrows `id`, which the caller has checked fits.
    fn new(id: usize) -> Self;
    fn index(self) -> usize;
}

impl CellId for u16 {
    fn new(id: usize) -> Self {
        debug_assert!(id <= u16::MAX as usize, "cell id {id} past u16");
        id as u16
    }

    fn index(self) -> usize {
        self as usize
    }
}

impl CellId for u32 {
    fn new(id: usize) -> Self {
        id as u32
    }

    fn index(self) -> usize {
        self as usize
    }
}

fn total_cells(resolution: usize, dims: usize) -> usize {
    resolution.saturating_pow(dims as u32)
}

impl RegionIndex for GridIndex {
    /// One run per overlapping non-empty cell, a full cell by reference
    /// and a cut cell as one mask bit per row; full cells whose slices
    /// touch share a run.
    fn query(&self, view: &NumericView, rect: &Rect) -> QueryOutput {
        let mut out = OutputBuilder::new(Some(Arc::clone(&self.rows)));
        let mut examined = 0usize;
        self.for_each_cell(rect, |from, rows, full| {
            if full {
                out.push_full(from, rows.len());
            } else {
                examined += rows.len();
                out.push_masked(from, rows.len(), |masks| {
                    view.mask_indices_into(rect, rows, masks)
                });
            }
        });
        out.finish(examined)
    }

    fn count(&self, view: &NumericView, rect: &Rect) -> CountOutput {
        let mut count = 0usize;
        let mut examined = 0usize;
        self.for_each_cell(rect, |_, rows, full| {
            if full {
                count += rows.len();
            } else {
                examined += rows.len();
                count += view.count_indices(rect, rows);
            }
        });
        CountOutput { count, examined }
    }

    /// The start of the cell's slice plus `i`'s place in it.
    fn run_key(&self, view: &NumericView, i: u32) -> u32 {
        let cell = Self::cell_of(view, i as usize, self.resolution);
        self.offsets[cell] + self.cell(cell).partition_point(|&j| j < i) as u32
    }

    /// At 8 or more buckets per dimension. The heuristic picks about
    /// `len^(1/dims)` buckets, so a coarser grid means few rows for the
    /// dimensions: a cell holds a row or two, and a box visits or cuts
    /// about as many cells as it spans rows. Counting a tree's boxes there
    /// cost up to 9× the per-row loop (`substrate/eval/*_{7d,12d,20d}_*`,
    /// 2–6 buckets). From 8 buckets up it won, except that a tree of 125
    /// random-label leaves at exactly 8 tied (`*_6d_random_tree_*`).
    fn counts_cheaply(&self) -> bool {
        self.resolution >= Self::COUNTING_RESOLUTION
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exclusions;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_testkit::prop::gen;
    use aide_testkit::{forall, prop_assert, prop_assert_eq};
    use aide_util::rng::{Rng, Xoshiro256pp};

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
    fn query_matches_brute_force() {
        let view = uniform_view(5_000, 2, 1);
        let idx = GridIndex::build(&view);
        let rects = [
            Rect::new(vec![10.0, 20.0], vec![30.0, 60.0]),
            Rect::new(vec![0.0, 0.0], vec![100.0, 100.0]),
            Rect::new(vec![99.5, 99.5], vec![100.0, 100.0]),
            Rect::new(vec![50.0, 50.0], vec![50.0, 50.0]),
        ];
        for rect in &rects {
            let mut got = idx.query(&view, rect).to_vec();
            got.sort_unstable();
            let mut want: Vec<u32> = view
                .indices_in(rect)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "mismatch for rect {rect:?}");
        }
    }

    #[test]
    fn query_matches_brute_force_high_dims() {
        for dims in [3, 4, 5] {
            let view = uniform_view(2_000, dims, dims as u64);
            let idx = GridIndex::build(&view);
            let rect = Rect::new(vec![20.0; dims], vec![80.0; dims]);
            let mut got = idx.query(&view, &rect).to_vec();
            got.sort_unstable();
            let mut want: Vec<u32> = view
                .indices_in(&rect)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "mismatch in {dims}-D");
        }
    }

    #[test]
    fn sparse_grids_answer_like_a_scan() {
        // 12-D over 3 000 rows: 2¹² cells, most of them empty.
        let dims = 12;
        let view = uniform_view(3_000, dims, 9);
        let idx = GridIndex::build(&view);
        let span = |lo: f64, hi: f64, cut: &[usize]| {
            let lo: Vec<f64> = (0..dims)
                .map(|d| if cut.contains(&d) { lo } else { 0.0 })
                .collect();
            let hi: Vec<f64> = (0..dims)
                .map(|d| if cut.contains(&d) { hi } else { 100.0 })
                .collect();
            Rect::new(lo, hi)
        };
        for rect in [
            Rect::full_domain(dims),
            span(0.0, 50.0, &[0]),
            span(20.0, 70.0, &[0, 1]),
            span(20.0, 70.0, &[11]),
            span(10.0, 90.0, &[0, 5, 11]),
            span(30.0, 60.0, &(0..dims).collect::<Vec<_>>()),
        ] {
            let mut want: Vec<u32> = view
                .indices_in(&rect)
                .into_iter()
                .map(|i| i as u32)
                .collect();
            want.sort_unstable();
            let mut got = idx.query(&view, &rect).to_vec();
            got.sort_unstable();
            assert_eq!(got, want, "{rect:?}");
            assert_eq!(idx.count(&view, &rect).count, want.len(), "{rect:?}");
            // A cut cell is a run of its own, as on a dense grid.
            for (slice, full) in idx.query(&view, &rect).run_slices() {
                let cell =
                    GridIndex::cell_of(&view, idx.rows[slice.start] as usize, idx.resolution);
                assert!(
                    full || slice.end <= idx.offsets[cell + 1] as usize,
                    "{rect:?}"
                );
            }
        }
    }

    #[test]
    fn full_cell_coverage_examines_nothing() {
        let view = uniform_view(1_000, 2, 3);
        let idx = GridIndex::with_resolution(&view, 10);
        // The whole domain: every cell is fully inside, zero point tests.
        let out = idx.query(&view, &Rect::full_domain(2));
        assert_eq!(out.len(), 1_000);
        assert_eq!(out.examined, 0);
        // A small rectangle strictly inside one cell examines only that
        // cell's points.
        let out = idx.query(&view, &Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]));
        assert!(out.examined <= 1_000 / 10, "examined {}", out.examined);
    }

    #[test]
    fn counts_are_cheap_from_eight_buckets_per_dimension() {
        let view = uniform_view(1_000, 2, 5);
        assert!(!GridIndex::with_resolution(&view, 7).counts_cheaply());
        assert!(GridIndex::with_resolution(&view, 8).counts_cheaply());
        // 20-D, capped at 2 buckets: every cell a row at most.
        let view = uniform_view(1_000, 20, 5);
        assert!(!GridIndex::build(&view).counts_cheaply());
    }

    #[test]
    fn resolution_caps_total_cells() {
        let view = uniform_view(100, 5, 4);
        let idx = GridIndex::with_resolution(&view, 64);
        // 64^5 is far beyond the cap; resolution must have been reduced.
        assert!(idx.resolution().pow(5) <= 1 << 20);
        assert!(idx.resolution() >= 2);
    }

    #[test]
    fn empty_view_queries_cleanly() {
        let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 100.0)]);
        let view = NumericView::new(mapper, vec![], vec![]);
        let idx = GridIndex::build(&view);
        let out = idx.query(&view, &Rect::full_domain(1));
        assert!(out.is_empty());
    }

    #[test]
    fn count_agrees_with_query() {
        let view = uniform_view(3_000, 2, 5);
        let idx = GridIndex::build(&view);
        for rect in [
            Rect::new(vec![25.0, 25.0], vec![75.0, 75.0]),
            Rect::full_domain(2),
            Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]),
        ] {
            let full = idx.query(&view, &rect);
            let fast = idx.count(&view, &rect);
            assert_eq!(fast.count, full.len());
            assert_eq!(fast.examined, full.examined);
        }
    }

    #[test]
    fn csr_cells_equal_a_naive_per_cell_build() {
        for (n, dims) in [(0, 2), (1, 1), (20_000, 2), (9_000, 3)] {
            let view = uniform_view(n, dims, 7 + n as u64);
            for pool in [Pool::serial(), Pool::new(4)] {
                let idx = GridIndex::build_with(&view, &pool);
                let r = idx.resolution();
                let mut naive = vec![Vec::new(); total_cells(r, dims)];
                for i in 0..view.len() {
                    naive[GridIndex::cell_of(&view, i, r)].push(i as u32);
                }
                assert_eq!(idx.offsets.len(), naive.len() + 1);
                for (c, want) in naive.iter().enumerate() {
                    assert_eq!(idx.cell(c), &want[..], "cell {c}, n {n}, {pool:?}");
                }
            }
        }
    }

    #[test]
    fn wide_cell_ids_build_the_same_cells() {
        // 64³ cells need `u32` ids; 40³ fit in `u16`.
        let view = uniform_view(30_000, 3, 11);
        for (resolution, threads) in [(64, 1), (64, 3), (40, 1), (40, 3)] {
            let idx = GridIndex::with_resolution_in(&view, resolution, &Pool::new(threads));
            let mut naive = vec![Vec::new(); total_cells(resolution, 3)];
            for i in 0..view.len() {
                naive[GridIndex::cell_of(&view, i, resolution)].push(i as u32);
            }
            for (c, want) in naive.iter().enumerate() {
                assert_eq!(idx.cell(c), &want[..], "cell {c} at {resolution}³");
            }
        }
    }

    #[test]
    fn runs_are_strips_over_ascending_slots() {
        let view = uniform_view(5_000, 2, 8);
        let idx = GridIndex::with_resolution(&view, 16);
        for rect in [
            Rect::full_domain(2),
            Rect::new(vec![10.0, 20.0], vec![31.25, 60.0]),
            Rect::new(vec![12.5, 12.5], vec![12.5, 100.0]),
            Rect::new(vec![99.9, 0.0], vec![100.0, 0.1]),
            Rect::new(vec![12.5, 0.0], vec![50.0, 100.0]),
        ] {
            let out = idx.query(&view, &rect);
            let slices = out.run_slices();
            assert!(slices.windows(2).all(|w| w[0].0.end <= w[1].0.start));
            assert!(
                slices
                    .windows(2)
                    .all(|w| !(w[0].1 && w[1].1 && w[0].0.end == w[1].0.start)),
                "touching full runs are one strip: {slices:?}"
            );
            // Positions ascend by slot, which is (cell, view index), and
            // each member is found at its position by its slot.
            let members = out.to_vec();
            let slots: Vec<usize> = members
                .iter()
                .map(|&i| idx.run_key(&view, i) as usize)
                .collect();
            assert!(slots.windows(2).all(|w| w[0] < w[1]));
            let mut r = 0;
            for (p, (&slot, &i)) in slots.iter().zip(&members).enumerate() {
                let cell = GridIndex::cell_of(&view, i as usize, 16);
                assert_eq!(idx.rows[slot], i);
                assert!(
                    idx.offsets[cell] as usize <= slot && slot < idx.offsets[cell + 1] as usize
                );
                r = out.run_after(r, slot);
                assert_eq!(out.position(r, slot), Some(p));
                assert_eq!(out.get(p), i);
            }
        }
        // Every cell is full on the whole domain, and the cells' slices
        // tile the rows: one strip.
        let out = idx.query(&view, &Rect::full_domain(2));
        assert_eq!(out.run_slices(), vec![(0..5_000, true)]);
        // Consecutive whole bucket rows (buckets 2..8 of the first
        // dimension) tile one stretch of the rows: one strip.
        let out = idx.query(&view, &Rect::new(vec![12.5, 0.0], vec![50.0, 100.0]));
        assert_eq!(out.run_slices().len(), 1);
        // Half bucket rows (buckets 0..8 of the second dimension) are six
        // strips, one per bucket of the first dimension.
        let out = idx.query(&view, &Rect::new(vec![12.5, 0.0], vec![50.0, 50.0]));
        assert_eq!(out.run_slices().len(), 6);
        assert!(out.run_slices().iter().all(|(_, full)| *full));
    }

    #[test]
    fn heuristic_resolution_follows_rows_per_cell() {
        let clamp = |n: usize, dims: u32| {
            ((n.max(1) as f64).powf(1.0 / dims as f64).ceil() as usize).clamp(2, 64)
        };
        for (n, want) in [
            (0, 2),
            (4_096, 64),
            (30_000, 64),
            (262_144, 64),
            (1_000_000, 64),
            (1_048_575, 64),
            (1_048_576, 128),
            (4_194_303, 128),
            (4_194_304, 256),
            (10_000_000, 256),
        ] {
            assert_eq!(
                GridIndex::heuristic_resolution(n, 2),
                want,
                "{n} rows in 2-D"
            );
        }
        // 1-D grids change only from 8 192 rows up.
        assert_eq!(GridIndex::heuristic_resolution(8_191, 1), 64);
        assert_eq!(GridIndex::heuristic_resolution(8_192, 1), 128);
        assert_eq!(GridIndex::heuristic_resolution(usize::MAX, 1), 1 << 20);
        // 3–5-D grids are the clamp's, at any size.
        for dims in 3..=5u32 {
            for n in [
                0,
                100,
                8_000,
                30_000,
                1 << 20,
                10_000_000,
                1 << 26,
                1 << 30,
                usize::MAX,
            ] {
                assert_eq!(
                    GridIndex::heuristic_resolution(n, dims as usize),
                    clamp(n, dims),
                    "{n} rows in {dims}-D"
                );
            }
        }
    }

    #[test]
    fn a_cell_is_full_only_if_every_value_of_its_bucket_is_inside() {
        // At resolution 5, 59.99999999999999 falls in bucket 3, whose
        // float lower bound 3·20 is 60.
        assert_eq!(bucket(59.999_999_999_999_99, 5), 3);
        let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 100.0)]);
        let view = NumericView::new(
            mapper,
            vec![59.999_999_999_999_99, 10.0, 70.0],
            vec![0, 1, 2],
        );
        let idx = GridIndex::with_resolution(&view, 5);
        let rect = Rect::new(vec![60.0], vec![100.0]);
        assert_eq!(idx.query(&view, &rect).to_vec(), vec![2]);
        assert_eq!(idx.count(&view, &rect).count, 1);
        let rect = Rect::new(vec![0.0], vec![59.999_999_999_999_99]);
        assert_eq!(idx.count(&view, &rect).count, 2);
        // Bounds a bucket edge really separates keep their full cells.
        let rect = Rect::new(vec![0.0], vec![100.0]);
        assert_eq!(
            idx.count(&view, &rect),
            CountOutput {
                count: 3,
                examined: 0
            }
        );
    }

    #[test]
    fn parallel_build_is_identical_to_serial() {
        let view = uniform_view(20_000, 2, 6);
        let serial = GridIndex::build_with(&view, &Pool::serial());
        for threads in [2, 4] {
            let par = GridIndex::build_with(&view, &Pool::new(threads));
            assert_eq!(serial, par, "{threads} threads");
        }
    }

    forall! {
        cases = 64;

        /// On fine grids, outputs are the cell-major filter and strips are
        /// maximal: at resolutions 128 and 256, on points clustered in a
        /// block of up to 8 × 8 cells (so that rectangles on cell edges
        /// fill whole bucket rows of non-empty cells), `to_vec()` and
        /// `get(p)` equal the matching view indices sorted by (cell, view
        /// index), excluding a random subset of the view hits exactly the
        /// reference's positions of it, and no two full runs touch.
        fn fine_grids_answer_cell_major_in_maximal_strips(
            raw in gen::vec_of(
                (gen::usize_in(0..8), gen::usize_in(0..8), gen::f64_in(0.0..1.0), gen::f64_in(0.0..1.0)),
                0..400,
            ),
            fine in gen::any_bool(),
            base in gen::usize_in(0..120),
            bounds in gen::vec_of((gen::usize_in(0..3), gen::usize_in(0..10), gen::f64_in(0.0..10.0)), 4..5),
            pick in gen::any_u64(),
        ) {
            let resolution = if fine { 256 } else { 128 };
            let w = 100.0 / resolution as f64;
            let points: Vec<f64> = raw
                .iter()
                .flat_map(|&(cx, cy, fx, fy)| {
                    [((base + cx) as f64 + fx) * w, ((base + cy) as f64 + fy) * w]
                })
                .collect();
            let n = raw.len();
            let mapper = SpaceMapper::new(
                vec!["x".into(), "y".into()],
                vec![Domain::new(0.0, 100.0); 2],
            );
            let view = NumericView::new(mapper, points, (0..n as u32).collect());
            let idx = GridIndex::with_resolution(&view, resolution);
            let v: Vec<f64> = bounds
                .iter()
                .map(|&(kind, k, value)| match kind {
                    0 => (base + k) as f64 * w,
                    1 => (base as f64 + value) * w,
                    _ => value * 10.0,
                })
                .collect();
            let rect = Rect::new(
                vec![v[0].min(v[1]), v[2].min(v[3])],
                vec![v[0].max(v[1]), v[2].max(v[3])],
            );
            let labeled: Vec<u32> = (0..n as u32)
                .filter(|&i| (pick.rotate_left(i % 64) ^ u64::from(i)) % 3 == 0)
                .collect();
            let mut want: Vec<(usize, u32)> = view
                .indices_in(&rect)
                .into_iter()
                .map(|i| (GridIndex::cell_of(&view, i, resolution), i as u32))
                .collect();
            want.sort_unstable();
            let want: Vec<u32> = want.into_iter().map(|(_, i)| i).collect();
            let out = idx.query(&view, &rect);
            prop_assert_eq!(&out.to_vec(), &want);
            for (p, &i) in want.iter().enumerate() {
                prop_assert_eq!(out.get(p), i, "get({})", p);
            }
            let excluded = Exclusions::new(&idx, &view, labeled.iter().copied(), 1);
            let hits: Vec<u32> = (0..want.len() as u32)
                .filter(|&p| labeled.contains(&want[p as usize]))
                .collect();
            prop_assert_eq!(excluded.hits(&out), hits);
            let slices = out.run_slices();
            prop_assert!(
                slices
                    .windows(2)
                    .all(|w| !(w[0].1 && w[1].1 && w[0].0.end == w[1].0.start)),
                "touching full runs: {:?}", slices
            );
        }
    }
}
