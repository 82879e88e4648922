//! Sample-extraction indexes for AIDE.
//!
//! Every AIDE exploration phase boils down to *"retrieve k random tuples
//! inside this hyper-rectangle"* (grid cells in the discovery phase,
//! cluster neighbourhoods in the misclassified phase, boundary slabs in the
//! boundary phase). The paper runs these as SQL over a covering index; this
//! crate provides the equivalent access paths over a normalized
//! [`NumericView`](aide_data::NumericView):
//!
//! * [`GridIndex`] — equi-width multidimensional bucketing (the one
//!   production access path; plays the covering index's role);
//! * [`ScanIndex`] — a deliberate full-scan path modelling the expensive
//!   whole-domain sampling queries of paper §5.2, and the reference the
//!   grid is checked against;
//! * [`ExtractionEngine`] — the façade the framework talks to, with
//!   per-session counters for extraction queries, tuples examined and
//!   wall-clock time (the paper's "sample extraction time").

#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod grid;
pub mod scan;

pub use cache::{CacheStats, SharedRegionCache};
pub use engine::{ExtractionEngine, ExtractionStats, IndexKind, Sample};
pub use grid::GridIndex;
pub use scan::ScanIndex;

use aide_data::NumericView;
use aide_util::geom::Rect;

/// Result of a region query: matching view indices plus the number of
/// points the access path had to examine to find them (the paper's
/// extraction-cost driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// View indices of points inside the query rectangle.
    ///
    /// Order is part of each access path's contract (sample selection maps
    /// RNG draws onto positions in this list): [`ScanIndex`] returns
    /// ascending view order; [`GridIndex`] returns cell-major visit order
    /// (ascending within each cell).
    pub indices: Vec<u32>,
    /// Points whose coordinates were compared against the rectangle.
    pub examined: usize,
}

/// Result of a counting query: how many points match plus how many were
/// examined, with no per-match allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountOutput {
    /// Number of points inside the query rectangle.
    pub count: usize,
    /// Points whose coordinates were compared against the rectangle.
    pub examined: usize,
}

/// A spatial access path over a [`NumericView`].
///
/// Implementations return *view indices* (positions in the view, not table
/// row ids); [`NumericView::row_id`](aide_data::NumericView::row_id) maps
/// them back to source rows.
pub trait RegionIndex: Send + Sync {
    /// All view indices whose points lie inside `rect`.
    fn query(&self, view: &NumericView, rect: &Rect) -> QueryOutput;

    /// Number of points inside `rect`. The default routes through
    /// [`RegionIndex::query`]; every in-tree index overrides it with a
    /// traversal that never materializes the matching index vector —
    /// density probes over large rectangles are issued every iteration by
    /// the grid-discovery phase, and allocating the full result just to
    /// take its length dominated their cost.
    fn count(&self, view: &NumericView, rect: &Rect) -> CountOutput {
        let out = self.query(view, rect);
        CountOutput {
            count: out.indices.len(),
            examined: out.examined,
        }
    }

    /// Human-readable name for diagnostics and benches.
    fn name(&self) -> &'static str;
}
