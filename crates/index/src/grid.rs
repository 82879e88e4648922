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

use std::ops::Range;

use aide_data::NumericView;
use aide_util::geom::Rect;
use aide_util::par::Pool;

use crate::block::{Block, Cell};
use crate::{CountOutput, QueryOutput, RegionIndex};

/// Grid index over a [`NumericView`]'s normalized points.
#[derive(Debug, Clone, PartialEq)]
pub struct GridIndex {
    dims: usize,
    resolution: usize,
    /// View indices grouped by flat cell id, ascending within each cell.
    rows: Vec<u32>,
    /// `rows[offsets[c]..offsets[c + 1]]` is cell `c`'s slice.
    offsets: Vec<u32>,
    /// Number of non-empty cells.
    nonempty: usize,
}

impl GridIndex {
    /// Maximum total number of cells; the per-dimension resolution is
    /// reduced until `resolution^dims` fits. Keeps high-dimensional
    /// indexes (the paper explores up to 5-D) from exploding.
    const MAX_CELLS: usize = 1 << 20;

    /// Points per parallel chunk of the cell-id mapping pass.
    const BUILD_CHUNK: usize = 8_192;

    /// Builds a grid index with a heuristically chosen resolution:
    /// roughly `n^(1/d)` buckets per dimension, clamped to `[2, 64]` and
    /// to the total-cell cap. Uses the ambient pool ([`Pool::from_env`]).
    pub fn build(view: &NumericView) -> Self {
        Self::build_with(view, &Pool::from_env(0))
    }

    /// [`GridIndex::build`] over an explicit worker pool. The index is
    /// identical for any thread count: the parallel pass only computes
    /// cell ids, and the scatter into cells stays in view order.
    pub fn build_with(view: &NumericView, pool: &Pool) -> Self {
        Self::with_resolution_in(
            view,
            Self::heuristic_resolution(view.len(), view.dims()),
            pool,
        )
    }

    /// The per-dimension resolution [`GridIndex::build`] picks for a view
    /// of `len` points in `dims` dimensions: roughly `len^(1/dims)`
    /// buckets, clamped to `[2, 64]` (the total-cell cap is applied later
    /// and depends only on `dims`).
    fn heuristic_resolution(len: usize, dims: usize) -> usize {
        let n = len.max(1) as f64;
        let target = n.powf(1.0 / dims.max(1) as f64).ceil() as usize;
        target.clamp(2, 64)
    }

    /// Builds a grid index with an explicit per-dimension resolution.
    ///
    /// # Panics
    ///
    /// Panics if `resolution < 1`.
    pub fn with_resolution(view: &NumericView, resolution: usize) -> Self {
        Self::with_resolution_in(view, resolution, &Pool::serial())
    }

    /// The CSR build: a (parallel) cell-id pass, one counting pass, a
    /// prefix sum and a scatter in view order.
    fn with_resolution_in(view: &NumericView, resolution: usize, pool: &Pool) -> Self {
        assert!(resolution >= 1, "grid resolution must be at least 1");
        let dims = view.dims();
        let mut resolution = resolution;
        while resolution > 1 && total_cells(resolution, dims) > Self::MAX_CELLS {
            resolution -= 1;
        }
        let ids: Vec<u32> = pool.par_map_collect(view.len(), Self::BUILD_CHUNK, |range| {
            range
                .map(|i| Self::cell_of(view, i, resolution) as u32)
                .collect()
        });
        let cells = total_cells(resolution, dims);
        let mut offsets = vec![0u32; cells + 1];
        for &c in &ids {
            offsets[c as usize + 1] += 1;
        }
        let nonempty = offsets.iter().filter(|&&n| n > 0).count();
        for c in 0..cells {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets[..cells].to_vec();
        let mut rows = vec![0u32; ids.len()];
        for (i, &c) in ids.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            rows[*slot as usize] = i as u32;
            *slot += 1;
        }
        Self {
            dims,
            resolution,
            rows,
            offsets,
            nonempty,
        }
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

    /// Calls `visit(cell, rows, full)` for every non-empty cell that
    /// overlaps `rect`, in ascending flat cell id. `full` says the cell's
    /// bounding box lies inside `rect`, so its rows need no point test.
    ///
    /// Whether a bucket lies inside `rect` is decided once per dimension
    /// per query, from the bucket bounds `b·w` and `(b + 1)·w`.
    fn for_each_cell(&self, rect: &Rect, mut visit: impl FnMut(usize, &[u32], bool)) {
        assert_eq!(rect.dims(), self.dims, "query dimensionality mismatch");
        let w = 100.0 / self.resolution as f64;
        let ranges: Vec<(usize, usize)> = (0..self.dims)
            .map(|d| self.bucket_range(rect.lo(d), rect.hi(d)))
            .collect();
        // inside[d][b - lo_d]: bucket b of dimension d lies within rect.
        let inside: Vec<Vec<bool>> = ranges
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| {
                (lo..=hi)
                    .map(|b| b as f64 * w >= rect.lo(d) && (b + 1) as f64 * w <= rect.hi(d))
                    .collect()
            })
            .collect();
        // Iterate the cross product of overlapping bucket ranges; the
        // odometer advances the last dimension fastest, so flat ids rise.
        let mut buckets: Vec<usize> = ranges.iter().map(|&(lo, _)| lo).collect();
        loop {
            let flat = buckets
                .iter()
                .fold(0usize, |acc, &b| acc * self.resolution + b);
            let rows = self.cell(flat);
            if !rows.is_empty() {
                let full = (0..self.dims).all(|d| inside[d][buckets[d] - ranges[d].0]);
                visit(flat, rows, full);
            }
            let mut d = self.dims;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                if buckets[d] < ranges[d].1 {
                    buckets[d] += 1;
                    break;
                }
                buckets[d] = ranges[d].0;
            }
        }
    }
}

/// The bucket of normalized coordinate `x` among `resolution` equal-width
/// buckets of `[0, 100]`. Never decreases as `x` grows, which is what
/// lets [`Block::compare`] answer from buckets alone.
pub(crate) fn bucket(x: f64, resolution: usize) -> usize {
    ((x / 100.0 * resolution as f64) as usize).min(resolution - 1)
}

fn total_cells(resolution: usize, dims: usize) -> usize {
    resolution.saturating_pow(dims as u32)
}

impl RegionIndex for GridIndex {
    fn query(&self, view: &NumericView, rect: &Rect) -> QueryOutput {
        let mut indices = Vec::new();
        let mut runs = Vec::new();
        let mut examined = 0usize;
        self.for_each_cell(rect, |cell, rows, full| {
            let start = indices.len();
            if full {
                indices.extend_from_slice(rows);
            } else {
                examined += rows.len();
                // Kernel sweep preserves the cell's ascending order.
                view.filter_indices_into(rect, rows, &mut indices);
            }
            if indices.len() > start {
                runs.push((cell as u32, start as u32));
            }
        });
        QueryOutput {
            indices,
            runs,
            examined,
        }
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

    fn run_key(&self, view: &NumericView, i: u32) -> u32 {
        Self::cell_of(view, i as usize, self.resolution) as u32
    }

    fn block_count(&self, _view: &NumericView) -> usize {
        self.nonempty
    }

    /// The block order is the CSR `rows` array: one block per non-empty
    /// cell, in ascending flat cell id.
    fn for_each_block(
        &self,
        _view: &NumericView,
        span: Range<usize>,
        visit: &mut dyn FnMut(Block<'_>),
    ) {
        debug_assert!(span.end <= self.rows.len(), "span past the view");
        if span.is_empty() {
            return;
        }
        // The cell holding position `span.start`: the last one whose
        // slice starts at or before it.
        let first = self.offsets.partition_point(|&o| o as usize <= span.start) - 1;
        // Its buckets, last dimension fastest; advanced like an odometer
        // from one cell id to the next.
        let mut buckets = vec![0; self.dims];
        let mut id = first;
        for b in buckets.iter_mut().rev() {
            *b = id % self.resolution;
            id /= self.resolution;
        }
        for id in first..self.offsets.len() - 1 {
            let start = (self.offsets[id] as usize).max(span.start);
            if start >= span.end {
                break;
            }
            let end = (self.offsets[id + 1] as usize).min(span.end);
            if start < end {
                let cell = Cell {
                    buckets: &buckets,
                    resolution: self.resolution,
                };
                visit(Block::in_cell(&self.rows[start..end], cell));
            }
            for b in buckets.iter_mut().rev() {
                *b += 1;
                if *b < self.resolution {
                    break;
                }
                *b = 0;
            }
        }
    }

    fn name(&self) -> &'static str {
        "grid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
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
            let mut got = idx.query(&view, rect).indices;
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
            let mut got = idx.query(&view, &rect).indices;
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
    fn full_cell_coverage_examines_nothing() {
        let view = uniform_view(1_000, 2, 3);
        let idx = GridIndex::with_resolution(&view, 10);
        // The whole domain: every cell is fully inside, zero point tests.
        let out = idx.query(&view, &Rect::full_domain(2));
        assert_eq!(out.indices.len(), 1_000);
        assert_eq!(out.examined, 0);
        // A small rectangle strictly inside one cell examines only that
        // cell's points.
        let out = idx.query(&view, &Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]));
        assert!(out.examined <= 1_000 / 10, "examined {}", out.examined);
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
        assert!(out.indices.is_empty());
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
            assert_eq!(fast.count, full.indices.len());
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
    fn runs_ascend_and_partition_the_result() {
        let view = uniform_view(5_000, 2, 8);
        let idx = GridIndex::with_resolution(&view, 16);
        for rect in [
            Rect::full_domain(2),
            Rect::new(vec![10.0, 20.0], vec![31.25, 60.0]),
            Rect::new(vec![12.5, 12.5], vec![12.5, 100.0]),
            Rect::new(vec![99.9, 0.0], vec![100.0, 0.1]),
        ] {
            let out = idx.query(&view, &rect);
            assert!(out.runs.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
            assert_eq!(out.runs.first().map_or(0, |r| r.1), 0);
            let ends = out.runs.iter().skip(1).map(|r| r.1 as usize);
            for (&(cell, start), end) in out.runs.iter().zip(ends.chain([out.indices.len()])) {
                let run = &out.indices[start as usize..end];
                assert!(!run.is_empty());
                assert!(run.windows(2).all(|w| w[0] < w[1]), "run ascends");
                for &i in run {
                    assert_eq!(idx.run_key(&view, i), cell);
                }
            }
        }
    }

    #[test]
    fn blocks_partition_the_rows_and_compare_truthfully() {
        let view = uniform_view(3_000, 2, 9);
        let idx = GridIndex::with_resolution(&view, 8);
        let thresholds = [0.0, 12.5, 30.0, 37.5, 62.4, 99.0, 100.0];
        for chunk in [1, 7, 100, 5_000] {
            let mut seen = vec![0u8; view.len()];
            let mut start = 0;
            while start < view.len() {
                let end = (start + chunk).min(view.len());
                idx.for_each_block(&view, start..end, &mut |block| {
                    assert!(!block.is_empty());
                    block.for_each_row(|i| {
                        seen[i] += 1;
                        for d in 0..2 {
                            for &t in &thresholds {
                                if let Some(o) = block.compare(d, t) {
                                    assert_eq!(view.coord(i, d).partial_cmp(&t), Some(o));
                                }
                            }
                        }
                    });
                });
                start = end;
            }
            assert!(seen.iter().all(|&s| s == 1), "chunk {chunk}");
        }
        let mut blocks = 0;
        idx.for_each_block(&view, 0..view.len(), &mut |_| blocks += 1);
        assert_eq!(blocks, idx.block_count(&view));
        assert_eq!(blocks, (0..64).filter(|&c| !idx.cell(c).is_empty()).count());
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
}
