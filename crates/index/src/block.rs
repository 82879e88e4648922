//! Row blocks: what an access path knows about a set of rows without
//! reading them.
//!
//! [`RegionIndex::for_each_block`](crate::RegionIndex::for_each_block)
//! splits a view's rows into blocks. A block answers one question from
//! the index alone: on dimension `d`, does every row lie below a value
//! `t`, does every row lie above it, or is that unknown? The F-measure
//! evaluator asks it of every tree split and every target edge, and a
//! block that no split and no edge cuts is counted by its length alone.

use std::cmp::Ordering;

use crate::grid;

/// A set of view rows plus what the access path knows of their
/// coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Block<'a> {
    rows: Rows<'a>,
    /// The grid cell holding every row; `None` when nothing is known.
    cell: Option<Cell<'a>>,
}

#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// Explicit view indices, ascending (a slice of a grid cell).
    Ids(&'a [u32]),
    /// The view indices `start..end`.
    Span(usize, usize),
}

/// A grid cell's position: its bucket on every dimension, among
/// `resolution` buckets per dimension.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cell<'a> {
    pub(crate) buckets: &'a [usize],
    pub(crate) resolution: usize,
}

impl<'a> Block<'a> {
    /// The rows `start..end`, about which nothing is known.
    pub(crate) fn span(start: usize, end: usize) -> Self {
        Self {
            rows: Rows::Span(start, end),
            cell: None,
        }
    }

    /// Rows that all lie in grid cell `cell`.
    pub(crate) fn in_cell(rows: &'a [u32], cell: Cell<'a>) -> Self {
        Self {
            rows: Rows::Ids(rows),
            cell: Some(cell),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self.rows {
            Rows::Ids(ids) => ids.len(),
            Rows::Span(start, end) => end - start,
        }
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How every row's coordinate on dimension `d` compares with `t`:
    /// `Some(o)` only if `x.partial_cmp(&t) == Some(o)` for every row,
    /// `None` if the rows differ or the block cannot tell.
    ///
    /// A grid cell decides this from buckets alone, never from its float
    /// bounds. The bucket map `x ↦ ⌊x/100·r⌋ ∧ (r−1)` never decreases as
    /// `x` grows, so if `t` falls in a higher bucket than the cell every
    /// row has `x < t`, and if in a lower one every row has `x > t`. In
    /// the cell's own bucket the answer is unknown. (Coordinates are
    /// never NaN: loaders reject non-finite values.)
    pub fn compare(&self, d: usize, t: f64) -> Option<Ordering> {
        let cell = self.cell?;
        match grid::bucket(t, cell.resolution).cmp(&cell.buckets[d]) {
            Ordering::Greater => Some(Ordering::Less),
            Ordering::Less => Some(Ordering::Greater),
            Ordering::Equal => None,
        }
    }

    /// Calls `f` with every row's view index, in ascending order.
    pub fn for_each_row(&self, mut f: impl FnMut(usize)) {
        match self.rows {
            Rows::Ids(ids) => ids.iter().for_each(|&i| f(i as usize)),
            Rows::Span(start, end) => (start..end).for_each(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_is_exact_away_from_the_cells_bucket() {
        // Bucket 1 of 4 holds x in [25, 50).
        let block = Block::in_cell(
            &[],
            Cell {
                buckets: &[1],
                resolution: 4,
            },
        );
        assert_eq!(block.compare(0, 50.0), Some(Ordering::Less));
        assert_eq!(block.compare(0, 25.0), None);
        assert_eq!(block.compare(0, 49.9), None);
        assert_eq!(block.compare(0, 24.9), Some(Ordering::Greater));
        assert_eq!(block.compare(0, -1.0), Some(Ordering::Greater));
        assert_eq!(block.compare(0, 100.0), Some(Ordering::Less));
        assert_eq!(Block::span(0, 3).compare(0, 50.0), None);
    }
}
