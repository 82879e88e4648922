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
//! * [`Exclusions`] — the session's labeled rows, keyed so that removing
//!   them from a query result costs O(|labels| · log) rather than a pass
//!   over the result;
//! * [`Block`] — a set of rows plus what the access path knows of their
//!   coordinates, the unit the F-measure evaluator counts by.

#![deny(missing_docs)]

pub mod block;
pub mod cache;
pub mod engine;
pub mod exclusions;
pub mod grid;
pub mod scan;

pub use block::Block;
pub use cache::{CacheStats, SharedRegionCache};
pub use engine::{ExtractionEngine, ExtractionStats, IndexKind, Sample};
pub use exclusions::Exclusions;
pub use grid::GridIndex;
pub use scan::ScanIndex;

use std::ops::Range;

use aide_data::NumericView;
use aide_util::geom::Rect;

/// Result of a region query: matching view indices, grouped into runs,
/// plus the number of points the access path had to examine to find them
/// (the paper's extraction-cost driver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// View indices of points inside the query rectangle.
    ///
    /// Order is part of each access path's contract (sample selection maps
    /// RNG draws onto positions in this list): [`ScanIndex`] returns
    /// ascending view order; [`GridIndex`] returns cell-major visit order
    /// (ascending within each cell).
    pub indices: Vec<u32>,
    /// `(key, start)` for each run of `indices`, in strictly ascending key
    /// order; a run ends where the next one starts (the last at
    /// `indices.len()`). Runs are non-empty and partition `indices`, and
    /// each run is in ascending view order. Every index in a run has
    /// [`RegionIndex::run_key`] equal to the run's key, so whether a given
    /// view index is in the output is one binary search in one run.
    pub runs: Vec<(u32, u32)>,
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

    /// The key of the [`QueryOutput::runs`] entry that view index `i`
    /// falls in, should a query return it: the flat cell id for
    /// [`GridIndex`], `0` for [`ScanIndex`].
    fn run_key(&self, view: &NumericView, i: u32) -> u32;

    /// Calls `visit` for the blocks at positions `span` of this access
    /// path's block order: the view's rows split into blocks (one per
    /// non-empty cell for [`GridIndex`], one holding every row for
    /// [`ScanIndex`]) laid end to end, so positions run over
    /// `0..view.len()`. A block that an end of `span` cuts is clipped to
    /// it. Cutting `0..view.len()` into spans therefore visits every row
    /// exactly once, whatever the cut points.
    fn for_each_block(
        &self,
        view: &NumericView,
        span: Range<usize>,
        visit: &mut dyn FnMut(Block<'_>),
    );

    /// Number of blocks [`RegionIndex::for_each_block`] visits over
    /// `0..view.len()`: the non-empty cells for [`GridIndex`], one (none
    /// for an empty view) for [`ScanIndex`].
    fn block_count(&self, view: &NumericView) -> usize;

    /// Human-readable name for diagnostics and benches.
    fn name(&self) -> &'static str;
}
