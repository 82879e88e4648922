//! In-memory tables.

use aide_util::rng::Rng;

use crate::column::Column;
use crate::error::{DataError, Result};
use crate::schema::Schema;
use crate::value::Value;
use crate::view::{Domain, NumericView, SpaceMapper};

/// An immutable, column-major in-memory table.
///
/// Tables play the role of the paper's MySQL database: exploration projects
/// a few numeric attributes out of a wide table
/// ([`Table::numeric_view`]) and sample-extraction queries run against
/// indexes built over that projection (see the `aide-index` crate).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl Table {
    /// The table name (used when rendering SQL).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The column named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// The cell at (`row`, `col`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materializes a full row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// The raw `[min, max]` domain of a numeric column.
    pub fn domain(&self, attr: &str) -> Result<Domain> {
        let col = self.column_by_name(attr)?;
        let (lo, hi) = col.min_max(attr)?;
        Ok(Domain::new(lo, hi))
    }

    /// Projects the table onto numeric `attrs` and normalizes each domain
    /// to `[0, 100]`, producing the exploration view (paper §2.3).
    ///
    /// Domains default to the observed min/max of each attribute;
    /// [`Table::numeric_view_with_domains`] accepts externally supplied
    /// domains (needed so a sampled replica agrees with its base table on
    /// the normalization).
    pub fn numeric_view(&self, attrs: &[&str]) -> Result<NumericView> {
        let domains = attrs
            .iter()
            .map(|a| self.domain(a))
            .collect::<Result<Vec<_>>>()?;
        self.numeric_view_with_domains(attrs, domains)
    }

    /// Like [`Table::numeric_view`] with caller-provided raw domains.
    pub fn numeric_view_with_domains(
        &self,
        attrs: &[&str],
        domains: Vec<Domain>,
    ) -> Result<NumericView> {
        assert_eq!(attrs.len(), domains.len(), "attrs/domains length mismatch");
        let cols = attrs
            .iter()
            .map(|a| {
                let idx = self.schema.index_of(a)?;
                if !self.schema.field(idx).dtype().is_numeric() {
                    return Err(DataError::NonNumeric((*a).to_owned()));
                }
                Ok(&self.columns[idx])
            })
            .collect::<Result<Vec<_>>>()?;
        // Build the column lanes directly: one normalization sweep per
        // attribute, writing straight into the view's native layout.
        let lanes: Vec<Vec<f64>> = cols
            .iter()
            .zip(&domains)
            .map(|(col, dom)| {
                (0..self.rows)
                    .map(|row| {
                        let v = col.f64_at(row).expect("checked numeric above");
                        dom.normalize(v)
                    })
                    .collect()
            })
            .collect();
        let mapper = SpaceMapper::new(attrs.iter().map(|s| (*s).to_owned()).collect(), domains);
        Ok(NumericView::from_lanes(
            mapper,
            lanes,
            (0..self.rows as u32).collect(),
        ))
    }

    /// Draws a simple random sample of `fraction` of the rows (each tuple
    /// chosen with equal probability, Olken & Rotem style), preserving the
    /// value distribution of every attribute domain — the property §5.2 of
    /// the paper relies on for the sampled-dataset optimization.
    ///
    /// The resulting table keeps the original name with a `_sample` suffix.
    /// `fraction` is clamped to `[0, 1]`. The draw costs a random number
    /// per sampled row ([`Rng::sample_indices`]), so fractions above about
    /// a half cost more than a pass over the table would.
    pub fn sample_fraction<R: Rng + ?Sized>(&self, fraction: f64, rng: &mut R) -> Table {
        let fraction = fraction.clamp(0.0, 1.0);
        let k = ((self.rows as f64) * fraction).round() as usize;
        let mut indices = rng.sample_indices(self.rows, k);
        indices.sort_unstable();
        let columns = self.columns.iter().map(|c| c.gather(&indices)).collect();
        Table {
            name: format!("{}_sample", self.name),
            schema: self.schema.clone(),
            columns,
            rows: indices.len(),
        }
    }
}

/// Row-at-a-time builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
}

impl TableBuilder {
    /// Starts a table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::new(f.dtype()))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Starts a table with reserved row capacity.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, rows: usize) -> Self {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::with_capacity(f.dtype(), rows))
            .collect();
        Self {
            name: name.into(),
            schema,
            columns,
            rows: 0,
        }
    }

    /// Appends one row.
    ///
    /// On error the row is not applied (the builder stays consistent).
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<()> {
        if values.len() != self.schema.len() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.len(),
                actual: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let field = self.schema.field(i);
            if !type_compatible(field.dtype(), v) {
                return Err(DataError::TypeMismatch {
                    field: field.name().to_owned(),
                    expected: field.dtype(),
                    actual: v.dtype(),
                });
            }
        }
        for (i, v) in values.into_iter().enumerate() {
            let field_name = self.schema.field(i).name().to_owned();
            self.columns[i]
                .push(v, &field_name)
                .expect("validated above");
        }
        self.rows += 1;
        Ok(())
    }

    /// Current number of buffered rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalizes the table.
    pub fn finish(self) -> Table {
        Table {
            name: self.name,
            schema: self.schema,
            columns: self.columns,
            rows: self.rows,
        }
    }
}

fn type_compatible(expected: crate::value::DataType, v: &Value) -> bool {
    use crate::value::DataType;
    matches!(
        (expected, v),
        (DataType::Float, Value::Float(_) | Value::Int(_))
            | (DataType::Int, Value::Int(_))
            | (DataType::Text, Value::Text(_))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;
    use aide_util::rng::Xoshiro256pp;

    fn trials_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("age", DataType::Int),
            ("dosage", DataType::Float),
            ("outcome", DataType::Text),
        ])
        .unwrap();
        let mut b = TableBuilder::new("trials", schema);
        for (age, dosage, outcome) in [
            (25i64, 12.0, "improved"),
            (30, 5.0, "stable"),
            (18, 14.5, "improved"),
            (40, 2.5, "worse"),
        ] {
            b.push_row(vec![age.into(), dosage.into(), outcome.into()])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn builder_round_trips_rows() {
        let t = trials_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.num_columns(), 3);
        assert_eq!(t.value(2, 0), Value::Int(18));
        assert_eq!(
            t.row(1),
            vec![Value::Int(30), Value::Float(5.0), Value::from("stable")]
        );
    }

    #[test]
    fn builder_rejects_bad_rows_atomically() {
        let schema = Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Float)]).unwrap();
        let mut b = TableBuilder::new("t", schema);
        assert!(matches!(
            b.push_row(vec![Value::Int(1)]),
            Err(DataError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.push_row(vec![Value::from("x"), Value::Float(1.0)]),
            Err(DataError::TypeMismatch { .. })
        ));
        assert_eq!(b.len(), 0);
        // A valid row still works after failures.
        b.push_row(vec![Value::Int(1), Value::Float(2.0)]).unwrap();
        let t = b.finish();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.column(0).len(), 1);
        assert_eq!(t.column(1).len(), 1);
    }

    #[test]
    fn domain_and_view_projection() {
        let t = trials_table();
        let d = t.domain("age").unwrap();
        assert_eq!((d.lo(), d.hi()), (18.0, 40.0));
        let view = t.numeric_view(&["age", "dosage"]).unwrap();
        assert_eq!(view.len(), 4);
        assert_eq!(view.dims(), 2);
        // Youngest patient normalizes to 0 on age; oldest to 100.
        assert_eq!(view.coord(2, 0), 0.0);
        assert_eq!(view.coord(3, 0), 100.0);
        // Text attributes are rejected.
        assert!(matches!(
            t.numeric_view(&["age", "outcome"]),
            Err(DataError::NonNumeric(_))
        ));
        assert!(matches!(
            t.numeric_view(&["nope"]),
            Err(DataError::UnknownField(_))
        ));
    }

    #[test]
    fn sample_fraction_sizes_and_distribution() {
        let schema = Schema::from_pairs(&[("x", DataType::Float)]).unwrap();
        let mut b = TableBuilder::with_capacity("big", schema, 10_000);
        for i in 0..10_000 {
            b.push_row(vec![Value::Float(i as f64)]).unwrap();
        }
        let t = b.finish();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let s = t.sample_fraction(0.1, &mut rng);
        assert_eq!(s.num_rows(), 1000);
        assert_eq!(s.name(), "big_sample");
        // Simple random sampling roughly preserves the mean.
        let mean: f64 = (0..s.num_rows())
            .map(|r| s.column(0).f64_at(r).unwrap())
            .sum::<f64>()
            / s.num_rows() as f64;
        assert!((mean - 4999.5).abs() < 300.0, "sampled mean {mean}");
        // Degenerate fractions.
        assert_eq!(t.sample_fraction(0.0, &mut rng).num_rows(), 0);
        assert_eq!(t.sample_fraction(1.5, &mut rng).num_rows(), 10_000);
    }
}
