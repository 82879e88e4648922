//! Table profiling.
//!
//! Exploration starts with "what is in this table?" — [`Table::describe`]
//! summarizes every column (type, range, moments, distinct counts) the way
//! a DBMS catalog or a notebook `describe()` would, and is what the `aide
//! describe` CLI command prints before a steering session.
//! [`NumericView::describe_lanes`] does the same for a packed view's
//! lanes, for `aide dataset info`.

use std::collections::HashSet;

use aide_util::stats::OnlineStats;

use crate::column::Column;
use crate::table::Table;
use crate::value::DataType;
use crate::view::NumericView;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Column type.
    pub dtype: DataType,
    /// Number of rows.
    pub count: usize,
    /// Number of distinct values (exact).
    pub distinct: usize,
    /// Minimum (numeric columns only).
    pub min: Option<f64>,
    /// Maximum (numeric columns only).
    pub max: Option<f64>,
    /// Mean (numeric columns only).
    pub mean: Option<f64>,
    /// Sample standard deviation (numeric columns only).
    pub std_dev: Option<f64>,
}

impl ColumnSummary {
    fn from_column(name: &str, col: &Column) -> Self {
        let count = col.len();
        let (distinct, numeric) = match col {
            Column::Float(v) => {
                let distinct = v.iter().map(|x| x.to_bits()).collect::<HashSet<_>>().len();
                let mut stats = OnlineStats::new();
                v.iter().for_each(|&x| stats.push(x));
                (distinct, Some(stats))
            }
            Column::Int(v) => {
                let distinct = v.iter().collect::<HashSet<_>>().len();
                let mut stats = OnlineStats::new();
                v.iter().for_each(|&x| stats.push(x as f64));
                (distinct, Some(stats))
            }
            Column::Text(v) => (v.iter().collect::<HashSet<_>>().len(), None),
        };
        let (min, max, mean, std_dev) = match numeric {
            Some(s) if s.count() > 0 => (s.min(), s.max(), Some(s.mean()), Some(s.std_dev())),
            _ => (None, None, None, None),
        };
        Self {
            name: name.to_owned(),
            dtype: col.dtype(),
            count,
            distinct,
            min,
            max,
            mean,
            std_dev,
        }
    }
}

impl Table {
    /// Profiles every column of the table.
    pub fn describe(&self) -> Vec<ColumnSummary> {
        self.schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| ColumnSummary::from_column(f.name(), self.column(i)))
            .collect()
    }
}

/// Summary statistics of one lane of a [`NumericView`], in the raw
/// units of its attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSummary {
    /// Attribute name.
    pub name: String,
    /// Number of rows.
    pub count: usize,
    /// Minimum (`None` for an empty view).
    pub min: Option<f64>,
    /// Mean (`None` for an empty view).
    pub mean: Option<f64>,
    /// Maximum (`None` for an empty view).
    pub max: Option<f64>,
}

impl NumericView {
    /// Profiles every lane: count, min, mean and max, mapped back from
    /// the normalized lane to raw attribute values (the map is linear and
    /// increasing, so it carries each statistic over).
    pub fn describe_lanes(&self) -> Vec<LaneSummary> {
        let mapper = self.mapper();
        (0..self.dims())
            .map(|d| {
                let mut stats = OnlineStats::new();
                self.lane(d).iter().for_each(|&x| stats.push(x));
                let domain = &mapper.domains()[d];
                let raw = |v: Option<f64>| v.map(|v| domain.denormalize(v));
                let empty = stats.count() == 0;
                LaneSummary {
                    name: mapper.attrs()[d].clone(),
                    count: self.len(),
                    min: raw(stats.min()),
                    mean: raw((!empty).then(|| stats.mean())),
                    max: raw(stats.max()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn table() -> Table {
        let schema = Schema::from_pairs(&[
            ("price", DataType::Float),
            ("bids", DataType::Int),
            ("note", DataType::Text),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        for (p, n, t) in [
            (10.0, 3i64, "a"),
            (20.0, 3, "b"),
            (30.0, 5, "a"),
            (40.0, 7, "c"),
        ] {
            b.push_row(vec![Value::Float(p), Value::Int(n), Value::from(t)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn numeric_columns_get_full_moments() {
        let summaries = table().describe();
        let price = &summaries[0];
        assert_eq!(price.name, "price");
        assert_eq!(price.count, 4);
        assert_eq!(price.distinct, 4);
        assert_eq!(price.min, Some(10.0));
        assert_eq!(price.max, Some(40.0));
        assert_eq!(price.mean, Some(25.0));
        assert!((price.std_dev.unwrap() - 12.909944).abs() < 1e-5);
        let bids = &summaries[1];
        assert_eq!(bids.distinct, 3, "int distinct counts duplicates once");
        assert_eq!(bids.mean, Some(4.5));
    }

    #[test]
    fn text_columns_report_distinct_only() {
        let summaries = table().describe();
        let note = &summaries[2];
        assert_eq!(note.dtype, DataType::Text);
        assert_eq!(note.distinct, 3);
        assert_eq!(note.min, None);
        assert_eq!(note.mean, None);
    }

    #[test]
    fn lanes_are_profiled_in_raw_units() {
        use crate::view::{Domain, SpaceMapper};
        let mapper = SpaceMapper::new(
            vec!["age".into(), "dose".into()],
            vec![Domain::new(0.0, 40.0), Domain::new(10.0, 20.0)],
        );
        let view = NumericView::new(mapper.clone(), vec![0.0, 50.0, 50.0, 100.0], vec![0, 1]);
        let lanes = view.describe_lanes();
        assert_eq!(lanes[0].name, "age");
        assert_eq!(lanes[0].count, 2);
        assert_eq!((lanes[0].min, lanes[0].mean, lanes[0].max), (Some(0.0), Some(10.0), Some(20.0)));
        assert_eq!((lanes[1].min, lanes[1].mean, lanes[1].max), (Some(15.0), Some(17.5), Some(20.0)));
        let empty = NumericView::new(mapper, vec![], vec![]).describe_lanes();
        assert_eq!((empty[1].count, empty[1].min, empty[1].mean), (0, None, None));
    }

    #[test]
    fn empty_table_describes_cleanly() {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let t = TableBuilder::new("t", schema).finish();
        let s = t.describe();
        assert_eq!(s[0].count, 0);
        assert_eq!(s[0].distinct, 0);
        assert_eq!(s[0].min, None);
    }
}
