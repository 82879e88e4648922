//! Full-scan access path.
//!
//! Models the expensive sample-extraction queries of paper §5.2: sampling
//! "across the whole domain of each attribute" forces the database to read
//! the entire covering index. Benchmarks contrast this path against
//! [`GridIndex`](crate::GridIndex) to reproduce the paper's
//! extraction-cost observations.

use std::ops::Range;

use aide_data::NumericView;
use aide_util::geom::Rect;

use crate::{Block, CountOutput, QueryOutput, RegionIndex};

/// An index-free access path that examines every point on every query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanIndex;

impl ScanIndex {
    /// Creates the scan path (no build cost, maximal query cost).
    pub fn new() -> Self {
        ScanIndex
    }
}

impl RegionIndex for ScanIndex {
    fn query(&self, view: &NumericView, rect: &Rect) -> QueryOutput {
        // The columnar containment kernel sweeps every lane in ascending
        // row order — the same output (and the same examined count) as the
        // old per-row filter loop, minus the branches.
        let mut indices = Vec::new();
        view.scan_rect_into(rect, 0, view.len(), &mut indices);
        // Ascending view order is one run under the single key 0.
        let runs = if indices.is_empty() {
            Vec::new()
        } else {
            vec![(0, 0)]
        };
        QueryOutput {
            indices,
            runs,
            examined: view.len(),
        }
    }

    fn count(&self, view: &NumericView, rect: &Rect) -> CountOutput {
        CountOutput {
            count: view.count_rect(rect, 0, view.len()),
            examined: view.len(),
        }
    }

    fn run_key(&self, _view: &NumericView, _i: u32) -> u32 {
        0
    }

    fn block_count(&self, view: &NumericView) -> usize {
        usize::from(!view.is_empty())
    }

    /// The block order is view order, as one block about which nothing
    /// is known.
    fn for_each_block(
        &self,
        view: &NumericView,
        span: Range<usize>,
        visit: &mut dyn FnMut(Block<'_>),
    ) {
        debug_assert!(span.end <= view.len(), "span past the view");
        if !span.is_empty() {
            visit(Block::span(span.start, span.end));
        }
    }

    fn name(&self) -> &'static str {
        "scan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};

    #[test]
    fn scan_examines_everything_and_finds_matches() {
        let mapper = SpaceMapper::new(
            vec!["x".into(), "y".into()],
            vec![Domain::new(0.0, 100.0); 2],
        );
        let data = vec![10.0, 10.0, 50.0, 50.0, 90.0, 90.0];
        let view = NumericView::new(mapper, data, vec![0, 1, 2]);
        let out = ScanIndex::new().query(&view, &Rect::new(vec![0.0, 0.0], vec![60.0, 60.0]));
        assert_eq!(out.indices, vec![0, 1]);
        assert_eq!(out.runs, vec![(0, 0)]);
        assert_eq!(out.examined, 3);
    }
}
