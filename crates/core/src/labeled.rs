//! The accumulated training set of labeled samples.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};

use aide_data::NumericView;
use aide_index::Sample;
use aide_ml::DecisionTree;

/// All samples labeled so far in a session: the decision tree's training
/// set. Duplicate rows are rejected (re-labeling an object adds no signal
/// and would waste user effort).
#[derive(Debug, Clone, Default)]
pub struct LabeledSet {
    dims: usize,
    data: Vec<f64>,
    labels: Vec<bool>,
    row_ids: Vec<u32>,
    view_indices: Vec<u32>,
    seen: HashSet<u32>,
    relevant: usize,
}

impl LabeledSet {
    /// Creates an empty set for `dims`-dimensional points.
    pub fn new(dims: usize) -> Self {
        Self {
            dims,
            ..Self::default()
        }
    }

    /// Number of labeled samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no samples have been labeled.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of relevant labels.
    pub fn relevant_count(&self) -> usize {
        self.relevant
    }

    /// Number of irrelevant labels.
    pub fn irrelevant_count(&self) -> usize {
        self.len() - self.relevant
    }

    /// Whether both classes are represented (a tree can be trained).
    pub fn has_both_classes(&self) -> bool {
        self.relevant > 0 && self.relevant < self.len()
    }

    /// Adds one labeled sample; returns `false` for duplicates.
    pub fn push(&mut self, sample: &Sample, label: bool) -> bool {
        debug_assert_eq!(sample.point.len(), self.dims);
        if !self.seen.insert(sample.row_id) {
            return false;
        }
        self.data.extend_from_slice(&sample.point);
        self.labels.push(label);
        self.row_ids.push(sample.row_id);
        self.view_indices.push(sample.view_index);
        if label {
            self.relevant += 1;
        }
        true
    }

    /// Row-major training buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Training labels.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// The labeled point at index `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Label of the sample at index `i`.
    pub fn label(&self, i: usize) -> bool {
        self.labels[i]
    }

    /// Row ids of labeled samples (what duplicate detection keys on).
    pub fn seen_rows(&self) -> &HashSet<u32> {
        &self.seen
    }

    /// View indices of labeled samples, in labeling order: the exclusion
    /// set for extraction
    /// ([`ExtractionEngine::exclusions`](aide_index::ExtractionEngine::exclusions)).
    pub fn view_indices(&self) -> &[u32] {
        &self.view_indices
    }

    /// Points each label's view index at the position of its row id in
    /// `view` — needed for labels read back by [`LabeledSet::read_csv`],
    /// which can only assume the position equals the row id. Labels whose
    /// row is not in `view` get an index past its end, which excludes
    /// nothing. Costs O(labels) when every assumed position holds its
    /// row, plus one pass over `view`'s row ids otherwise.
    pub fn bind_view(&mut self, view: &NumericView) {
        let holds = |i: u32, row: u32| (i as usize) < view.len() && view.row_id(i as usize) == row;
        let mut unbound: HashMap<u32, usize> = (0..self.len())
            .filter(|&j| !holds(self.view_indices[j], self.row_ids[j]))
            .map(|j| (self.row_ids[j], j))
            .collect();
        if unbound.is_empty() {
            return;
        }
        for (i, row) in view.row_ids().enumerate() {
            if let Some(j) = unbound.remove(&row) {
                self.view_indices[j] = i as u32;
            }
        }
        for j in unbound.into_values() {
            self.view_indices[j] = u32::MAX;
        }
    }

    /// Source-table row of the sample at index `i`.
    pub fn row_id(&self, i: usize) -> u32 {
        self.row_ids[i]
    }

    /// Indices of false negatives under `tree`: samples the user labeled
    /// relevant but the model classifies irrelevant (paper §4.1 — these
    /// flag relevant areas the tree has not yet carved out).
    pub fn false_negatives(&self, tree: &DecisionTree) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.labels[i] && !tree.predict(self.point(i)))
            .collect()
    }

    /// Indices of false positives under `tree` (labeled irrelevant,
    /// predicted relevant — the boundary-imprecision symptom of §4.1).
    pub fn false_positives(&self, tree: &DecisionTree) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| !self.labels[i] && tree.predict(self.point(i)))
            .collect()
    }

    /// Persists the labeled set as CSV (`row_id,label,x_0,…,x_{d−1}`),
    /// so an interrupted exploration can be resumed later with
    /// [`ExplorationSession::seed_labels`](crate::session::ExplorationSession::seed_labels).
    pub fn write_csv<W: Write>(&self, out: &mut W) -> std::io::Result<()> {
        for i in 0..self.len() {
            write!(out, "{},{}", self.row_ids[i], self.labels[i] as u8)?;
            for v in self.point(i) {
                write!(out, ",{v}")?;
            }
            writeln!(out)?;
        }
        Ok(())
    }

    /// Reads a labeled set written by [`LabeledSet::write_csv`]. The file
    /// holds no view positions, so each sample's view index is set to its
    /// row id; [`LabeledSet::bind_view`] corrects it for a view whose
    /// positions differ from its row ids.
    ///
    /// Returns an error for malformed lines, wrong dimensionality or
    /// duplicate row ids.
    pub fn read_csv<R: BufRead>(dims: usize, input: R) -> std::io::Result<Self> {
        let bad = |line: usize, msg: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("labeled-set CSV line {line}: {msg}"),
            )
        };
        let mut set = LabeledSet::new(dims);
        for (idx, line) in input.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != dims + 2 {
                return Err(bad(idx + 1, "wrong field count"));
            }
            let row_id: u32 = fields[0].parse().map_err(|_| bad(idx + 1, "bad row id"))?;
            let label = match fields[1] {
                "0" => false,
                "1" => true,
                _ => return Err(bad(idx + 1, "label must be 0 or 1")),
            };
            let point = fields[2..]
                .iter()
                .map(|f| f.parse::<f64>())
                .collect::<Result<Vec<f64>, _>>()
                .map_err(|_| bad(idx + 1, "bad coordinate"))?;
            let ok = set.push(
                &Sample {
                    view_index: row_id,
                    row_id,
                    point,
                },
                label,
            );
            if !ok {
                return Err(bad(idx + 1, "duplicate row id"));
            }
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_ml::TreeParams;

    fn sample(row_id: u32, point: &[f64]) -> Sample {
        Sample {
            view_index: row_id,
            row_id,
            point: point.to_vec(),
        }
    }

    #[test]
    fn push_accumulates_and_dedups() {
        let mut set = LabeledSet::new(2);
        assert!(set.push(&sample(1, &[1.0, 2.0]), true));
        assert!(set.push(&sample(2, &[3.0, 4.0]), false));
        assert!(!set.push(&sample(1, &[1.0, 2.0]), true), "duplicate row");
        assert_eq!(set.len(), 2);
        assert_eq!(set.relevant_count(), 1);
        assert_eq!(set.irrelevant_count(), 1);
        assert!(set.has_both_classes());
        assert_eq!(set.point(1), &[3.0, 4.0]);
        assert!(set.label(0));
        assert!(set.seen_rows().contains(&2));
    }

    #[test]
    fn single_class_is_flagged() {
        let mut set = LabeledSet::new(1);
        set.push(&sample(1, &[1.0]), false);
        set.push(&sample(2, &[2.0]), false);
        assert!(!set.has_both_classes());
    }

    #[test]
    fn csv_round_trip() {
        let mut set = LabeledSet::new(2);
        set.push(&sample(3, &[1.5, 2.25]), true);
        set.push(&sample(7, &[0.0, 100.0]), false);
        let mut buf = Vec::new();
        set.write_csv(&mut buf).unwrap();
        let back = LabeledSet::read_csv(2, &buf[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.point(0), &[1.5, 2.25]);
        assert!(back.label(0));
        assert!(!back.label(1));
        assert!(back.seen_rows().contains(&7));
        assert_eq!(back.view_indices(), &[3, 7]);
    }

    #[test]
    fn bind_view_finds_each_row_in_the_view() {
        use aide_data::view::{Domain, SpaceMapper};
        let mapper = SpaceMapper::new(vec!["x".into()], vec![Domain::new(0.0, 100.0)]);
        // Row ids 10, 3, 7 at positions 0, 1, 2.
        let view = NumericView::new(mapper, vec![1.0, 2.0, 3.0], vec![10, 3, 7]);
        let mut set = LabeledSet::new(1);
        set.push(&sample(7, &[3.0]), true);
        set.push(&sample(1, &[2.0]), false); // not in the view
        set.push(&sample(10, &[1.0]), false);
        set.bind_view(&view);
        assert_eq!(set.view_indices(), &[2, u32::MAX, 0]);
        // Already-bound labels are left alone.
        set.bind_view(&view);
        assert_eq!(set.view_indices(), &[2, u32::MAX, 0]);
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(
            LabeledSet::read_csv(2, &b"1,1,2.0"[..]).is_err(),
            "field count"
        );
        assert!(
            LabeledSet::read_csv(2, &b"1,5,2.0,3.0"[..]).is_err(),
            "label"
        );
        assert!(
            LabeledSet::read_csv(2, &b"x,1,2.0,3.0"[..]).is_err(),
            "row id"
        );
        assert!(
            LabeledSet::read_csv(2, &b"1,1,2.0,3.0\n1,0,4.0,5.0"[..]).is_err(),
            "duplicate"
        );
        // Blank lines are tolerated.
        let ok = LabeledSet::read_csv(2, &b"\n1,1,2.0,3.0\n\n"[..]).unwrap();
        assert_eq!(ok.len(), 1);
    }

    #[test]
    fn false_negatives_and_positives() {
        // Train a tree on a half-space, then feed it contradicting labels.
        let mut set = LabeledSet::new(1);
        for i in 0..10 {
            set.push(&sample(i, &[i as f64 * 10.0]), i >= 5);
        }
        let tree = DecisionTree::fit(1, set.data(), set.labels(), &TreeParams::default());
        // The tree perfectly fits: no misclassifications.
        assert!(set.false_negatives(&tree).is_empty());
        assert!(set.false_positives(&tree).is_empty());
        // A relevant point in the predicted-irrelevant half is a FN.
        set.push(&sample(100, &[5.0]), true);
        // An irrelevant point in the predicted-relevant half is a FP.
        set.push(&sample(101, &[95.0]), false);
        assert_eq!(set.false_negatives(&tree), vec![10]);
        assert_eq!(set.false_positives(&tree), vec![11]);
    }
}
