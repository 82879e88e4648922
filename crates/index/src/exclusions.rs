//! The rows sample selection must skip.
//!
//! A session never shows the user a row it has already labeled, so every
//! selection removes the labeled rows E from a query result before it
//! draws. E holds tens to a few thousand rows; a result over a 10M-row
//! view holds up to millions. [`Exclusions`] keeps E sorted in the order
//! rows appear in any [`QueryOutput`] — by ([`RegionIndex::run_key`],
//! view index) — so the raw positions of E ∩ result come out of one walk
//! over E with a binary search in the matching run's rows, then a bit
//! test and a rank in its mask: O(|E| · log) per result, whatever the
//! result's size.

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
    /// `(run key, view index)`, sorted and deduplicated.
    keyed: Vec<(u32, u32)>,
    /// Identity of the index the keys were computed with (0 when empty).
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
        let mut keyed: Vec<(u32, u32)> = view_indices
            .into_iter()
            .filter(|&i| (i as usize) < view.len())
            .map(|i| (index.run_key(view, i), i))
            .collect();
        keyed.sort_unstable();
        keyed.dedup();
        let owner = if keyed.is_empty() { 0 } else { owner };
        Self { keyed, owner }
    }

    /// Number of excluded view indices.
    pub fn len(&self) -> usize {
        self.keyed.len()
    }

    /// Whether nothing is excluded.
    pub fn is_empty(&self) -> bool {
        self.keyed.is_empty()
    }

    /// Identity of the index the keys belong to (0 for the empty set).
    pub(crate) fn owner(&self) -> usize {
        self.owner
    }

    /// Calls `hit(p)` for each raw position `p` of `out` that holds an
    /// excluded view index, in ascending `p`.
    fn for_each_hit(&self, out: &QueryOutput, mut hit: impl FnMut(usize)) {
        if self.keyed.is_empty() {
            // A session's first round: nothing is labeled, and the
            // output's keys need not be read.
            return;
        }
        let keys = out.keys();
        let (Some(&first), Some(&last)) = (keys.first(), keys.last()) else {
            return;
        };
        let from = self.keyed.partition_point(|&(k, _)| k < first);
        let mut r = 0;
        for &(key, i) in &self.keyed[from..] {
            if key > last {
                break;
            }
            // Runs and entries both ascend by key: the cursor only moves on.
            r += keys[r..].partition_point(|&k| k < key);
            if keys[r] == key {
                if let Some(p) = out.position(r, i) {
                    hit(p);
                }
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
    fn hits_follow_runs_and_ignore_other_keys() {
        // Cells 3 → rows [4, 9] (full), 5 → [1, 2, 8] with 2 cut away,
        // 9 → [0] (full); the output is [4, 9, 1, 8, 0].
        let mut b = OutputBuilder::new(Some(Arc::from(vec![4, 9, 1, 2, 8, 0])));
        b.push_full(3, 0, 2);
        b.push_masked(5, 2, 3, |m| m.push(0b101));
        b.push_full(9, 5, 1);
        let out = b.finish(0);
        let set = Exclusions {
            // (4, 1): key absent from the output; (5, 7): not a row of
            // its cell; (5, 2): a row of its cell the mask cuts away.
            keyed: vec![
                (0, 6),
                (3, 9),
                (4, 1),
                (5, 2),
                (5, 7),
                (5, 8),
                (9, 0),
                (12, 3),
            ],
            owner: 1,
        };
        assert_eq!(set.hits(&out), vec![1, 3, 4]);
        assert_eq!(set.count_hits(&out), 3);
        let empty = OutputBuilder::new(None).finish(0);
        assert!(set.hits(&empty).is_empty());
        assert!(Exclusions::none().hits(&out).is_empty());
    }
}
