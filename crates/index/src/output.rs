//! Query outputs as cell runs.
//!
//! A region query over a 10M-row view returns up to millions of rows,
//! and the region cache keeps every answer it computes. Copying those ids
//! into each answer would make the cache the largest thing in memory.
//! A [`QueryOutput`] copies none: it is an ordered list of runs over the
//! rows its access path already stores (the grid's CSR `rows`, shared by
//! reference, or the view's own order for the scan).
//!
//! * A cell that lies inside the rectangle is a *full* run: every row of
//!   its slice is a member, and the run stores nothing else.
//! * A cell that the rectangle's edge cuts is a *masked* run: one bit per
//!   row of its slice says whether that row is a member. All masks of an
//!   output live in one word array, each word next to its rank.
//!
//! Positions are ascending run, then ascending row within the run, which
//! is ascending view index. So [`QueryOutput::get`] is one binary search
//! over the runs and, in a masked run, one over its words plus a select
//! in one word.

use std::mem::size_of;
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
/// RNG draws onto positions): ascending run key, then ascending view
/// index within a run. [`ScanIndex`](crate::ScanIndex) has one run, so
/// its order is ascending view order; [`GridIndex`](crate::GridIndex) has
/// one run per cell, in ascending flat cell id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// The rows runs take slices of; `None` when row `j` is view index
    /// `j`.
    rows: Option<Arc<[u32]>>,
    /// Each non-empty run's key ([`RegionIndex::run_key`] of every
    /// member: the flat cell id for the grid, 0 for the scan), strictly
    /// ascending. Kept apart from `runs` so that exclusion, which
    /// searches by key, reads only keys.
    ///
    /// [`RegionIndex::run_key`]: crate::RegionIndex::run_key
    keys: Box<[u32]>,
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
            + self.keys.len() * (size_of::<u32>() + size_of::<Run>())
            + self.masks.len() * size_of::<MaskWord>()
    }

    /// The runs' keys, strictly ascending.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// The position of view index `i` if it is a member of run `r`.
    pub(crate) fn position(&self, r: usize, i: u32) -> Option<usize> {
        let run = &self.runs[r];
        let from = run.from as usize;
        let j = match &self.rows {
            Some(rows) => rows[from..from + run.rows_len as usize]
                .binary_search(&i)
                .ok()?,
            None => (i as usize)
                .checked_sub(from)
                .filter(|&j| j < run.rows_len as usize)?,
        };
        if run.mask == FULL {
            return Some(run.start as usize + j);
        }
        let word = &self.masks[run.mask as usize + j / WORD];
        let below = word.bits & ((1u64 << (j % WORD)) - 1);
        (word.bits >> (j % WORD) & 1 == 1).then(|| word.rank as usize + below.count_ones() as usize)
    }

    fn row(&self, j: usize) -> u32 {
        match &self.rows {
            Some(rows) => rows[j],
            None => j as u32,
        }
    }
}

/// Builds a [`QueryOutput`] run by run, in ascending key order.
#[derive(Debug)]
pub(crate) struct OutputBuilder {
    rows: Option<Arc<[u32]>>,
    keys: Vec<u32>,
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
            keys: Vec::new(),
            runs: Vec::new(),
            masks: Vec::new(),
            bits: Vec::new(),
            len: 0,
        }
    }

    /// Appends every row of `from..from + rows_len` as a run under `key`.
    pub(crate) fn push_full(&mut self, key: u32, from: usize, rows_len: usize) {
        if rows_len == 0 {
            return;
        }
        self.push(key, from, rows_len, FULL, rows_len);
    }

    /// Appends the members of rows `from..from + rows_len` as a run under
    /// `key`. `fill` appends the run's mask: `rows_len.div_ceil(64)`
    /// words, one bit per row, lowest bit first. A run with no member is
    /// dropped, and one whose every row is a member is stored as a full
    /// run.
    pub(crate) fn push_masked(
        &mut self,
        key: u32,
        from: usize,
        rows_len: usize,
        fill: impl FnOnce(&mut Vec<u64>),
    ) {
        self.bits.clear();
        fill(&mut self.bits);
        debug_assert_eq!(self.bits.len(), rows_len.div_ceil(WORD));
        let members: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        if members == 0 || members == rows_len {
            self.push_full(key, from, members);
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
        self.push(key, from, rows_len, first, members);
    }

    fn push(&mut self, key: u32, from: usize, rows_len: usize, mask: u32, members: usize) {
        debug_assert!(self.keys.last().is_none_or(|&k| k < key), "keys ascend");
        self.keys.push(key);
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
            keys: self.keys.into_boxed_slice(),
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

    /// Rows of three cells: keys 3, 5 and 9 own `rows[0..2]`, `[2..5]`
    /// and `[5..6]`.
    fn sample() -> QueryOutput {
        let rows: Arc<[u32]> = Arc::from(vec![4, 9, 1, 2, 8, 0]);
        let mut b = OutputBuilder::new(Some(rows));
        b.push_full(3, 0, 2);
        b.push_masked(5, 2, 3, |m| m.push(0b101));
        b.push_masked(9, 5, 1, |m| m.push(0b1));
        b.finish(4)
    }

    #[test]
    fn positions_follow_runs_then_rows() {
        let out = sample();
        assert_eq!(out.to_vec(), vec![4, 9, 1, 8, 0]);
        assert_eq!(out.len(), 5);
        assert_eq!((0..5).map(|p| out.get(p)).collect::<Vec<_>>(), out.to_vec());
        // The all-ones mask of key 9 became a full run.
        assert_eq!(out.masks.len(), 1);
        assert_eq!(out.keys(), [3, 5, 9]);
        assert_eq!(out.position(1, 8), Some(3));
        assert_eq!(
            out.position(1, 2),
            None,
            "a row of the cell that is not a member"
        );
        assert_eq!(out.position(1, 7), None, "not a row of the cell");
        assert_eq!(out.position(0, 9), Some(1));
    }

    #[test]
    fn empty_masks_drop_their_run() {
        let mut b = OutputBuilder::new(None);
        b.push_masked(0, 0, 70, |m| m.extend([0, 0]));
        let out = b.finish(70);
        assert!(out.is_empty());
        assert!(out.keys().is_empty() && out.masks.is_empty());
    }

    #[test]
    fn identity_rows_select_across_words() {
        // Rows 0..200 with every third row a member: 67 members, 4 words.
        let mut b = OutputBuilder::new(None);
        b.push_masked(0, 0, 200, |m| {
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
            assert_eq!(out.position(0, i), Some(p));
            assert_eq!(out.position(0, i + 1), None);
        }
        assert_eq!(out.position(0, 200), None);
    }
}
