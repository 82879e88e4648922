//! The rows sample selection must skip.
//!
//! A session never shows the user a row it has already labeled, so every
//! selection removes the labeled rows E from a query result before it
//! draws. E holds tens to a few thousand rows; a result over a 10M-row
//! view holds up to millions. [`Exclusions`] keeps E as ascending *slots*
//! ([`RegionIndex::run_key`]: a row's index in the access path's row
//! order), the order in which rows appear in any [`QueryOutput`]. So the
//! raw positions of E ∩ result come out of one walk over E with a cursor
//! over the result's runs; in a run, a slot's position is its offset in
//! the run, or a bit test and a rank in the run's mask: O(|E| · log) per
//! result, whatever the result's size.

use aide_data::NumericView;

use crate::{QueryOutput, RegionIndex};

/// A set of view indices that selection never returns, keyed for one
/// access path. Built by
/// [`ExtractionEngine::exclusions`](crate::ExtractionEngine::exclusions);
/// valid for that engine and its forks, which share its index.
///
/// Exclusion is by *view position*. Excluding a labeled object by its
/// position is the same as excluding it by its source row id because a
/// view holds each row id at most once (every view in the tree is built
/// with distinct row ids — a projection numbers its rows `0..n`, and a
/// stored view keeps the ids of the view it was written from).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exclusions {
    /// The excluded rows' slots, ascending and distinct.
    slots: Vec<u32>,
    /// Identity of the index the slots were computed with (0 when empty).
    owner: usize,
}

impl Exclusions {
    /// The empty set: selection skips nothing. Valid for any engine.
    pub fn none() -> Self {
        Self::default()
    }

    /// Keys `view_indices` with `index`; indices outside the view are
    /// dropped (no query can return them).
    pub(crate) fn new(
        index: &dyn RegionIndex,
        view: &NumericView,
        view_indices: impl IntoIterator<Item = u32>,
        owner: usize,
    ) -> Self {
        let mut slots: Vec<u32> = view_indices
            .into_iter()
            .filter(|&i| (i as usize) < view.len())
            .map(|i| index.run_key(view, i))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let owner = if slots.is_empty() { 0 } else { owner };
        Self { slots, owner }
    }

    /// Adds every row of `more` to this set, in one merge of the two
    /// ascending slot lists: the set is the one that keying both sets'
    /// view indices at once would give.
    ///
    /// # Panics
    ///
    /// Panics if both sets are non-empty and were keyed for different
    /// indexes.
    pub fn merge(&mut self, more: Exclusions) {
        if more.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = more;
            return;
        }
        assert_eq!(
            self.owner, more.owner,
            "exclusions were keyed for different indexes"
        );
        let mut merged = Vec::with_capacity(self.slots.len() + more.slots.len());
        let (mut a, mut b) = (self.slots.iter().peekable(), more.slots.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (a.peek(), b.peek()) {
            merged.push(x.min(y));
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
        }
        merged.extend(a);
        merged.extend(b);
        self.slots = merged;
    }

    /// Number of excluded view indices.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Identity of the index the slots belong to (0 for the empty set).
    pub(crate) fn owner(&self) -> usize {
        self.owner
    }

    /// Calls `hit(p)` for each raw position `p` of `out` that holds an
    /// excluded view index, in ascending `p`.
    fn for_each_hit(&self, out: &QueryOutput, mut hit: impl FnMut(usize)) {
        if self.slots.is_empty() {
            // A session's first round: nothing is labeled, and the
            // output's runs need not be read.
            return;
        }
        let span = out.slots();
        let from = self.slots.partition_point(|&s| (s as usize) < span.start);
        let mut r = 0;
        for &slot in &self.slots[from..] {
            let slot = slot as usize;
            if slot >= span.end {
                break;
            }
            // Runs and slots both ascend: the cursor only moves on, and
            // the last run ends at `span.end`, so it stays on a run.
            r = out.run_after(r, slot);
            if let Some(p) = out.position(r, slot) {
                hit(p);
            }
        }
    }

    /// The ascending raw positions in `out` of excluded indices.
    pub(crate) fn hits(&self, out: &QueryOutput) -> Vec<u32> {
        let mut hits = Vec::new();
        self.for_each_hit(out, |p| hits.push(p as u32));
        hits
    }

    /// How many of `out`'s view indices are excluded.
    pub(crate) fn count_hits(&self, out: &QueryOutput) -> usize {
        let mut count = 0;
        self.for_each_hit(out, |_| count += 1);
        count
    }
}

/// Maps position `p` among the candidates that remain once the ascending
/// raw positions `hits` are removed back to its raw position. The `j`-th
/// hit has `hits[j] - j` candidates before it, a non-decreasing sequence,
/// so the hits at or before the answer are found by binary search.
pub(crate) fn raw_position(hits: &[u32], p: usize) -> usize {
    let (mut lo, mut hi) = (0, hits.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if hits[mid] as usize - mid <= p {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    p + lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::OutputBuilder;
    use std::sync::Arc;

    #[test]
    fn raw_position_skips_every_hit() {
        for hits in [vec![], vec![0], vec![2], vec![0, 1], vec![1, 3, 4, 7]] {
            let len = 10;
            let kept: Vec<usize> = (0..len).filter(|p| !hits.contains(&(*p as u32))).collect();
            for (p, &want) in kept.iter().enumerate() {
                assert_eq!(raw_position(&hits, p), want, "hits {hits:?} p {p}");
            }
        }
    }

    #[test]
    fn hits_follow_runs_and_ignore_other_slots() {
        // Cells own slots 0..2 → rows [4, 9] (full), 2..5 → [1, 2, 8] with
        // slot 3 (row 2) cut away, 5..6 → [0] (full), 8..10 → [5, 6]
        // (full); slots 6..8 belong to cells the rectangle misses. The
        // output is [4, 9, 1, 8, 0, 5, 6].
        let mut b = OutputBuilder::new(Some(Arc::from(vec![4, 9, 1, 2, 8, 0, 3, 7, 5, 6])));
        b.push_full(0, 2);
        b.push_masked(2, 3, |m| m.push(0b101));
        b.push_full(5, 1);
        b.push_full(8, 2);
        let out = b.finish(0);
        let set = Exclusions {
            // 3: a slot of a cut cell the mask cuts away; 6 and 7: slots
            // between runs; 12: past the last run.
            slots: vec![1, 3, 4, 5, 6, 7, 9, 12],
            owner: 1,
        };
        assert_eq!(set.hits(&out), vec![1, 3, 4, 6]);
        assert_eq!(set.count_hits(&out), 4);
        let empty = OutputBuilder::new(None).finish(0);
        assert!(set.hits(&empty).is_empty());
        assert!(Exclusions::none().hits(&out).is_empty());
        // Slots before the first run are skipped by the first search.
        let mut b = OutputBuilder::new(Some(Arc::from(vec![4, 9, 1, 2, 8, 0, 3, 7, 5, 6])));
        b.push_full(8, 2);
        assert_eq!(set.hits(&b.finish(0)), vec![1]);
    }

    #[test]
    fn merge_equals_keying_both_at_once() {
        let keyed = |slots: &[u32]| Exclusions {
            slots: slots.to_vec(),
            owner: if slots.is_empty() { 0 } else { 7 },
        };
        for (a, b) in [
            (vec![], vec![]),
            (vec![], vec![3, 5]),
            (vec![3, 5], vec![]),
            (vec![1, 4, 9], vec![0, 4, 10, 11]),
            (vec![2, 3], vec![2, 3]),
        ] {
            let mut want: Vec<u32> = a.iter().chain(&b).copied().collect();
            want.sort_unstable();
            want.dedup();
            let mut set = keyed(&a);
            set.merge(keyed(&b));
            assert_eq!(set, keyed(&want), "{a:?} + {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "different indexes")]
    fn merge_refuses_another_index() {
        let mut set = Exclusions {
            slots: vec![1],
            owner: 1,
        };
        set.merge(Exclusions {
            slots: vec![2],
            owner: 2,
        });
    }
}
