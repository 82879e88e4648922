//! Full-scan access path.
//!
//! Models the expensive sample-extraction queries of paper §5.2: sampling
//! "across the whole domain of each attribute" forces the database to read
//! the entire covering index. Benchmarks contrast this path against
//! [`GridIndex`](crate::GridIndex) to reproduce the paper's
//! extraction-cost observations.

use aide_data::NumericView;
use aide_util::geom::Rect;

use crate::output::OutputBuilder;
use crate::{CountOutput, QueryOutput, RegionIndex};

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
    /// One run over the view's rows in view order, masked by the
    /// columnar containment kernel.
    fn query(&self, view: &NumericView, rect: &Rect) -> QueryOutput {
        let mut out = OutputBuilder::new(None);
        out.push_masked(0, view.len(), |masks| {
            view.mask_rect_into(rect, 0, view.len(), masks)
        });
        out.finish(view.len())
    }

    fn count(&self, view: &NumericView, rect: &Rect) -> CountOutput {
        CountOutput {
            count: view.count_rect(rect, 0, view.len()),
            examined: view.len(),
        }
    }

    /// The scan's row order is view order.
    fn run_key(&self, _view: &NumericView, i: u32) -> u32 {
        i
    }

    /// Never: each count reads every row.
    fn counts_cheaply(&self) -> bool {
        false
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
        assert_eq!(out.to_vec(), vec![0, 1]);
        assert_eq!(out.run_slices(), vec![(0..3, false)]);
        assert_eq!(out.examined, 3);
    }
}
