//! Minimal CSV import/export for tables.
//!
//! Real IDE deployments load their data from files; this module gives the
//! examples and tests a way to persist generated datasets and to ingest
//! user-provided ones. It implements RFC-4180-style quoting (fields
//! containing `,`, `"` or newlines are quoted; embedded quotes double).

use std::io::{BufRead, Write};

use crate::error::{DataError, Result};
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use crate::value::{DataType, Value};

/// Writes `table` as CSV with a header row.
pub fn write_csv<W: Write>(table: &Table, out: &mut W) -> Result<()> {
    let header = table
        .schema()
        .fields()
        .iter()
        .map(|f| escape(f.name()))
        .collect::<Vec<_>>()
        .join(",");
    writeln!(out, "{header}")?;
    for row in 0..table.num_rows() {
        let mut line = String::new();
        for col in 0..table.num_columns() {
            if col > 0 {
                line.push(',');
            }
            line.push_str(&escape(&table.value(row, col).to_string()));
        }
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Reads a CSV file with a header row into a table named `name`.
///
/// Column types are inferred from the data: a column where every value
/// parses as `i64` becomes `Int`; failing that, `f64` → `Float`;
/// otherwise `Text`. A `Float` cell must be finite: `inf`, `-inf` and
/// `NaN` are rejected with [`DataError::Csv`] naming the line. An input
/// with only a header yields an empty table of text columns.
pub fn read_csv<R: BufRead>(name: &str, input: R) -> Result<Table> {
    let mut records = parse_records(input)?;
    if records.is_empty() {
        return Err(DataError::Csv {
            line: 1,
            message: "missing header row".into(),
        });
    }
    let header = records.remove(0);
    let cols = header.len();
    for (i, rec) in records.iter().enumerate() {
        if rec.len() != cols {
            return Err(DataError::Csv {
                line: i + 2,
                message: format!("expected {cols} fields, found {}", rec.len()),
            });
        }
    }
    // Infer each column's type from the narrowest parse that fits all rows.
    let mut dtypes = vec![DataType::Int; cols];
    for (c, dtype) in dtypes.iter_mut().enumerate() {
        let mut ty = DataType::Int;
        for rec in &records {
            let s = rec[c].trim();
            match ty {
                DataType::Int if s.parse::<i64>().is_err() => {
                    ty = if s.parse::<f64>().is_ok() {
                        DataType::Float
                    } else {
                        DataType::Text
                    };
                }
                DataType::Float if s.parse::<f64>().is_err() => ty = DataType::Text,
                _ => {}
            }
            if ty == DataType::Text {
                break;
            }
        }
        *dtype = ty;
    }
    let fields = header
        .iter()
        .zip(&dtypes)
        .map(|(n, &t)| (n.as_str(), t))
        .collect::<Vec<_>>();
    let schema = Schema::from_pairs(&fields)?;
    let mut builder = TableBuilder::with_capacity(name, schema, records.len());
    for (i, rec) in records.iter().enumerate() {
        let values = rec
            .iter()
            .zip(&dtypes)
            .map(|(s, &t)| parse_value(s.trim(), t, i + 2))
            .collect::<Result<Vec<_>>>()?;
        builder.push_row(values)?;
    }
    Ok(builder.finish())
}

fn parse_value(s: &str, dtype: DataType, line: usize) -> Result<Value> {
    match dtype {
        DataType::Int => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| DataError::Csv {
                line,
                message: format!("bad int `{s}`: {e}"),
            }),
        DataType::Float => match s.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Value::Float(v)),
            Ok(_) => Err(DataError::Csv {
                line,
                message: format!("non-finite float `{s}`"),
            }),
            Err(e) => Err(DataError::Csv {
                line,
                message: format!("bad float `{s}`: {e}"),
            }),
        },
        DataType::Text => Ok(Value::Text(s.to_owned())),
    }
}

fn escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Splits the input into records, honoring quoted fields (which may contain
/// separators, quotes and line breaks).
fn parse_records<R: BufRead>(mut input: R) -> Result<Vec<Vec<String>>> {
    let mut text = String::new();
    input.read_to_string(&mut text)?;
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        return Err(DataError::Csv {
                            line,
                            message: "quote inside unquoted field".into(),
                        });
                    }
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // Swallow; the matching '\n' terminates the record.
                }
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DataError::Csv {
            line,
            message: "unterminated quoted field".into(),
        });
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn small_table() -> Table {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Int),
            ("price", DataType::Float),
            ("note", DataType::Text),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema);
        b.push_row(vec![1i64.into(), 9.5.into(), "plain".into()])
            .unwrap();
        b.push_row(vec![2i64.into(), 0.25.into(), "has, comma".into()])
            .unwrap();
        b.push_row(vec![3i64.into(), 7.0.into(), "has \"quote\"".into()])
            .unwrap();
        b.finish()
    }

    #[test]
    fn write_read_round_trip() {
        let t = small_table();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv("t", Cursor::new(buf)).unwrap();
        assert_eq!(back.num_rows(), 3);
        assert_eq!(back.schema(), t.schema());
        for r in 0..3 {
            assert_eq!(back.row(r), t.row(r));
        }
    }

    #[test]
    fn type_inference_narrowest_first() {
        let csv = "a,b,c\n1,1.5,x\n2,2,y\n";
        let t = read_csv("t", Cursor::new(csv)).unwrap();
        assert_eq!(t.schema().field(0).dtype(), DataType::Int);
        assert_eq!(t.schema().field(1).dtype(), DataType::Float);
        assert_eq!(t.schema().field(2).dtype(), DataType::Text);
        assert_eq!(t.value(1, 1), Value::Float(2.0));
    }

    #[test]
    fn quoted_fields_with_newlines() {
        let csv = "a,b\n\"multi\nline\",\"x,y\"\n";
        let t = read_csv("t", Cursor::new(csv)).unwrap();
        assert_eq!(t.num_rows(), 1);
        assert_eq!(t.value(0, 0), Value::from("multi\nline"));
        assert_eq!(t.value(0, 1), Value::from("x,y"));
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n3,4\r\n";
        let t = read_csv("t", Cursor::new(csv)).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.value(1, 1), Value::Int(4));
    }

    #[test]
    fn ragged_rows_are_rejected_with_line_number() {
        let csv = "a,b\n1,2\n3\n";
        let err = read_csv("t", Cursor::new(csv)).unwrap_err();
        match err {
            DataError::Csv { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn non_finite_float_cells_are_rejected_with_line_number() {
        for cell in ["inf", "-inf", "NaN"] {
            let csv = format!("a,b\n1.5,2\n{cell},3\n");
            match read_csv("t", Cursor::new(csv)) {
                Err(DataError::Csv { line, message }) => {
                    assert_eq!(line, 3, "{cell}");
                    assert!(message.contains("non-finite"), "{cell}: {message}");
                }
                other => panic!("{cell}: want a Csv error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let csv = "a\n\"oops\n";
        assert!(matches!(
            read_csv("t", Cursor::new(csv)),
            Err(DataError::Csv { .. })
        ));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(matches!(
            read_csv("t", Cursor::new("")),
            Err(DataError::Csv { .. })
        ));
    }

    #[test]
    fn trailing_record_without_newline() {
        let csv = "a\n1\n2";
        let t = read_csv("t", Cursor::new(csv)).unwrap();
        assert_eq!(t.num_rows(), 2);
    }
}
