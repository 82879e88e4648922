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
//!   wall-clock time (the paper's "sample extraction time");
//! * [`QueryOutput`] — a query's answer as runs over the rows the access
//!   path already stores: strips of full cells by reference, cut cells as
//!   bit masks, so no answer copies row ids;
//! * [`Exclusions`] — the session's labeled rows, keyed by their index in
//!   the access path's row order so that removing them from a query
//!   result costs O(|labels| · log) rather than a pass over the result.

#![deny(missing_docs)]

pub mod cache;
pub mod engine;
pub mod exclusions;
pub mod grid;
pub mod output;
pub mod scan;

pub use cache::{CacheStats, SharedRegionCache};
pub use engine::{ExtractionEngine, ExtractionStats, IndexKind, Sample};
pub use exclusions::Exclusions;
pub use grid::GridIndex;
pub use output::QueryOutput;
pub use scan::ScanIndex;

use aide_data::NumericView;
use aide_util::geom::Rect;

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
            count: out.len(),
            examined: out.examined,
        }
    }

    /// The *slot* of view index `i`: its index in this access path's
    /// row order, the order every [`QueryOutput`] lists its members in.
    /// For [`GridIndex`] that is the start of `i`'s cell in the CSR rows
    /// plus `i`'s place in the cell; for [`ScanIndex`] it is `i`.
    fn run_key(&self, view: &NumericView, i: u32) -> u32;

    /// Whether [`RegionIndex::count`] of a box costs well under a pass
    /// over the rows it spans. A session counts its model's F-measure box
    /// by box only over such an index, and row by row otherwise.
    fn counts_cheaply(&self) -> bool;

    /// Human-readable name for diagnostics and benches.
    fn name(&self) -> &'static str;
}
