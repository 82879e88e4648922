//! Query outputs as runs over row slots.
//!
//! A region query over a 10M-row view returns up to millions of rows,
//! and the region cache keeps every answer it computes. Copying those ids
//! into each answer would make the cache the largest thing in memory.
//! A [`QueryOutput`] copies none: it is an ordered list of runs over the
//! rows its access path already stores (the grid's CSR `rows`, shared by
//! reference, or the view's own order for the scan). A row's index in
//! that order is its *slot*.
//!
//! * Cells that lie inside the rectangle are *full* runs: every row of
//!   the slice is a member, and the run stores nothing else. Cells whose
//!   slices touch (neighbours along the grid's last dimension) share one
//!   run, a *strip*.
//! * A cell that the rectangle's edge cuts is a *masked* run: one bit per
//!   row of its slice says whether that row is a member. All masks of an
//!   output live in one word array, each word next to its rank.
//!
//! Positions are ascending slot, which within a cell is ascending view
//! index. So [`QueryOutput::get`] is one binary search over the runs and,
//! in a masked run, one over its words plus a select in one word; and the
//! position of a slot is a binary search over the runs plus, in a masked
//! run, a bit test and a rank.

use std::mem::size_of;
use std::ops::Range;
use std::sync::Arc;

/// `Run::mask` of a run whose every row is a member.
const FULL: u32 = u32::MAX;

/// Bits per mask word.
const WORD: usize = 64;

/// Where one run's members come from: a slice of the rows, and the mask
/// over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Output position of the run's first member.
    start: u32,
    /// First row of the run's slice.
    from: u32,
    /// Rows in the slice, members or not.
    rows_len: u32,
    /// First mask word of a masked run, or [`FULL`].
    mask: u32,
}

impl Run {
    fn words(&self) -> usize {
        (self.rows_len as usize).div_ceil(WORD)
    }

    /// One past the slot of the slice's last row.
    fn end(&self) -> usize {
        self.from as usize + self.rows_len as usize
    }
}

/// 64 rows of a masked run: a bit per row, and the output position of
/// the first member among them. Packed to 12 bytes: the padding of an
/// aligned layout would add a third to the mask memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
struct MaskWord {
    bits: u64,
    rank: u32,
}

/// Result of a region query: the view indices inside the rectangle, as
/// runs over the access path's rows, plus the number of points the path
/// had to examine to find them (the paper's extraction-cost driver).
///
/// Order is part of each access path's contract (sample selection maps
/// RNG draws onto positions): ascending slot
/// ([`RegionIndex::run_key`](crate::RegionIndex::run_key)).
/// [`ScanIndex`](crate::ScanIndex) has one run over the view, so its
/// order is ascending view order; [`GridIndex`](crate::GridIndex) has
/// runs in ascending flat cell id, and ascending view index within a
/// cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The rows runs take slices of; `None` when row `j` is view index
    /// `j`.
    rows: Option<Arc<[u32]>>,
    /// Non-empty runs over disjoint slices, ascending by slot.
    runs: Box<[Run]>,
    /// Every masked run's words; bit `j % 64` of word `mask + j / 64`
    /// stands for row `from + j`.
    masks: Box<[MaskWord]>,
    len: usize,
    /// Points whose coordinates were compared against the rectangle.
    pub examined: usize,
}

impl QueryOutput {
    /// Number of view indices in the output.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the rectangle holds no point.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The view index at position `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.len()`.
    pub fn get(&self, p: usize) -> u32 {
        assert!(p < self.len, "position {p} past an output of {}", self.len);
        let r = self.runs.partition_point(|r| r.start as usize <= p) - 1;
        let run = &self.runs[r];
        let j = if run.mask == FULL {
            p - run.start as usize
        } else {
            // The last word whose rank is at or before `p` holds it.
            let words = &self.masks[run.mask as usize..run.mask as usize + run.words()];
            let w = words.partition_point(|m| m.rank as usize <= p) - 1;
            let mut bits = words[w].bits;
            for _ in 0..p - words[w].rank as usize {
                bits &= bits - 1;
            }
            w * WORD + bits.trailing_zeros() as usize
        };
        self.row(run.from as usize + j)
    }

    /// Every view index, in position order, copied into a vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        for run in self.runs.iter() {
            let from = run.from as usize;
            if run.mask == FULL {
                out.extend((from..from + run.rows_len as usize).map(|j| self.row(j)));
                continue;
            }
            let words = &self.masks[run.mask as usize..run.mask as usize + run.words()];
            for (w, word) in words.iter().enumerate() {
                let mut bits = word.bits;
                while bits != 0 {
                    out.push(self.row(from + w * WORD + bits.trailing_zeros() as usize));
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Bytes this output holds on the heap and inline, not counting the
    /// rows it shares with its access path: what the region cache
    /// charges for keeping it.
    pub fn bytes(&self) -> usize {
        size_of::<Self>()
            + self.runs.len() * size_of::<Run>()
            + self.masks.len() * size_of::<MaskWord>()
    }

    /// The slots from the first run's first row to the last run's last
    /// row; empty for an empty output.
    pub(crate) fn slots(&self) -> Range<usize> {
        match (self.runs.first(), self.runs.last()) {
            (Some(first), Some(last)) => first.from as usize..last.end(),
            _ => 0..0,
        }
    }

    /// The first run at or after run `r` whose slice ends past `slot`
    /// (the number of runs if there is none). Callers that visit slots
    /// in ascending order keep the answer as a cursor for the next.
    pub(crate) fn run_after(&self, r: usize, slot: usize) -> usize {
        r + self.runs[r..].partition_point(|run| run.end() <= slot)
    }

    /// The position of the row at `slot` if run `r`, whose slice ends
    /// past `slot`, holds it as a member.
    pub(crate) fn position(&self, r: usize, slot: usize) -> Option<usize> {
        let run = &self.runs[r];
        debug_assert!(slot < run.end(), "slot past run {r}");
        let j = slot.checked_sub(run.from as usize)?;
        if run.mask == FULL {
            return Some(run.start as usize + j);
        }
        let word = &self.masks[run.mask as usize + j / WORD];
        let below = word.bits & ((1u64 << (j % WORD)) - 1);
        (word.bits >> (j % WORD) & 1 == 1).then(|| word.rank as usize + below.count_ones() as usize)
    }

    /// Each run's slice of slots, and whether the run is full.
    #[cfg(test)]
    pub(crate) fn run_slices(&self) -> Vec<(Range<usize>, bool)> {
        self.runs
            .iter()
            .map(|r| (r.from as usize..r.end(), r.mask == FULL))
            .collect()
    }

    fn row(&self, j: usize) -> u32 {
        match &self.rows {
            Some(rows) => rows[j],
            None => j as u32,
        }
    }
}

/// Builds a [`QueryOutput`] run by run, in ascending slot order.
#[derive(Debug)]
pub(crate) struct OutputBuilder {
    rows: Option<Arc<[u32]>>,
    runs: Vec<Run>,
    masks: Vec<MaskWord>,
    /// The mask words of the run being pushed.
    bits: Vec<u64>,
    len: usize,
}

impl OutputBuilder {
    /// An empty output over `rows` (`None`: row `j` is view index `j`).
    pub(crate) fn new(rows: Option<Arc<[u32]>>) -> Self {
        Self {
            rows,
            runs: Vec::new(),
            masks: Vec::new(),
            bits: Vec::new(),
            len: 0,
        }
    }

    /// Appends every row of `from..from + rows_len`. When the last run is
    /// full and ends at `from`, it grows instead: positions are the same
    /// either way, and the output holds one run fewer.
    pub(crate) fn push_full(&mut self, from: usize, rows_len: usize) {
        if rows_len == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.mask == FULL && last.end() == from {
                last.rows_len += rows_len as u32;
                self.len += rows_len;
                return;
            }
        }
        self.push(from, rows_len, FULL, rows_len);
    }

    /// Appends the members of rows `from..from + rows_len`. `fill`
    /// appends the run's mask: `rows_len.div_ceil(64)` words, one bit per
    /// row, lowest bit first. A run with no member is dropped, and one
    /// whose every row is a member is pushed as a full run.
    pub(crate) fn push_masked(
        &mut self,
        from: usize,
        rows_len: usize,
        fill: impl FnOnce(&mut Vec<u64>),
    ) {
        self.bits.clear();
        fill(&mut self.bits);
        debug_assert_eq!(self.bits.len(), rows_len.div_ceil(WORD));
        let members: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        if members == 0 || members == rows_len {
            self.push_full(from, members);
            return;
        }
        let first = self.masks.len() as u32;
        let mut rank = self.len;
        for &bits in &self.bits {
            self.masks.push(MaskWord {
                bits,
                rank: rank as u32,
            });
            rank += bits.count_ones() as usize;
        }
        self.push(from, rows_len, first, members);
    }

    fn push(&mut self, from: usize, rows_len: usize, mask: u32, members: usize) {
        debug_assert!(
            self.runs.last().is_none_or(|r| r.end() <= from),
            "runs ascend by slot and do not overlap"
        );
        self.runs.push(Run {
            start: self.len as u32,
            from: from as u32,
            rows_len: rows_len as u32,
            mask,
        });
        self.len += members;
    }

    /// The finished output, charged `examined` point tests.
    pub(crate) fn finish(self, examined: usize) -> QueryOutput {
        QueryOutput {
            rows: self.rows,
            runs: self.runs.into_boxed_slice(),
            masks: self.masks.into_boxed_slice(),
            len: self.len,
            examined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of three cells: slots `0..2`, `2..5` and `5..6`.
    fn sample() -> QueryOutput {
        let rows: Arc<[u32]> = Arc::from(vec![4, 9, 1, 2, 8, 0]);
        let mut b = OutputBuilder::new(Some(rows));
        b.push_full(0, 2);
        b.push_masked(2, 3, |m| m.push(0b101));
        b.push_masked(5, 1, |m| m.push(0b1));
        b.finish(4)
    }

    #[test]
    fn positions_follow_runs_then_rows() {
        let out = sample();
        assert_eq!(out.to_vec(), vec![4, 9, 1, 8, 0]);
        assert_eq!(out.len(), 5);
        assert_eq!((0..5).map(|p| out.get(p)).collect::<Vec<_>>(), out.to_vec());
        // The all-ones mask of the last cell became a full run; it does
        // not join the masked run before it.
        assert_eq!(out.masks.len(), 1);
        assert_eq!(out.runs.len(), 3);
        assert_eq!(out.slots(), 0..6);
        assert_eq!(
            [0, 1, 2, 4, 5, 6].map(|slot| out.run_after(0, slot)),
            [0, 0, 1, 1, 2, 3]
        );
        assert_eq!(out.run_after(2, 1), 2, "the cursor never moves back");
        assert_eq!(out.position(1, 4), Some(3));
        assert_eq!(
            out.position(1, 3),
            None,
            "a row of the cell that is not a member"
        );
        assert_eq!(out.position(0, 1), Some(1));
        assert_eq!(out.position(2, 5), Some(4));
    }

    #[test]
    fn touching_full_runs_form_strips() {
        let rows: Arc<[u32]> = Arc::from((0..12).rev().collect::<Vec<u32>>());
        let mut b = OutputBuilder::new(Some(rows));
        b.push_full(0, 2);
        b.push_full(2, 3);
        // All ones: pushed as full, and it touches the strip.
        b.push_masked(5, 2, |m| m.push(0b11));
        // A gap of one slot starts a new run.
        b.push_full(8, 1);
        b.push_masked(9, 2, |m| m.push(0b10));
        // A full cell after a masked one starts a new run too.
        b.push_full(11, 1);
        let out = b.finish(0);
        assert_eq!(out.runs.len(), 4);
        assert_eq!(out.to_vec(), vec![11, 10, 9, 8, 7, 6, 5, 3, 1, 0]);
        for p in 0..out.len() {
            assert_eq!(out.get(p), out.to_vec()[p]);
        }
        assert_eq!(out.position(0, 6), Some(6));
        assert_eq!(out.run_after(0, 7), 1, "slot 7 lies in the gap");
        assert_eq!(out.position(1, 7), None);
        assert_eq!(out.position(2, 9), None);
        assert_eq!(out.position(2, 10), Some(8));
        assert_eq!(out.position(3, 11), Some(9));
    }

    #[test]
    fn empty_masks_drop_their_run() {
        let mut b = OutputBuilder::new(None);
        b.push_masked(0, 70, |m| m.extend([0, 0]));
        let out = b.finish(70);
        assert!(out.is_empty());
        assert!(out.runs.is_empty() && out.masks.is_empty());
        assert!(out.slots().is_empty());
    }

    #[test]
    fn identity_rows_select_across_words() {
        // Rows 0..200 with every third row a member: 67 members, 4 words.
        let mut b = OutputBuilder::new(None);
        b.push_masked(0, 200, |m| {
            m.extend((0..4).map(|w| {
                (0..64)
                    .filter(|b| (w * 64 + b) % 3 == 0 && w * 64 + b < 200)
                    .fold(0u64, |acc, b| acc | 1 << b)
            }))
        });
        let out = b.finish(200);
        let want: Vec<u32> = (0..200).filter(|i| i % 3 == 0).collect();
        assert_eq!(out.to_vec(), want);
        for (p, &i) in want.iter().enumerate() {
            assert_eq!(out.get(p), i);
            assert_eq!(out.position(0, i as usize), Some(p));
            assert_eq!(out.position(0, i as usize + 1), None);
        }
        assert_eq!(out.slots(), 0..200);
    }
}
