//! Order statistics and the one-line JSON result.

use aide_util::json::{obj, Json};

use crate::analyst::Tally;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    aide_util::stats::quantile(values, q).unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(tally.violations == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}
