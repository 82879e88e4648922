//! The steadiness report: run one workload N times on seeds 1..=N and
//! print, for each metric, the median, the quartiles and the spread (the
//! quartile distance over the median) against the bound `BENCHMARK.json`
//! fixes for it.

use std::collections::BTreeMap;
use std::process::Command;

use aide_util::json::Json;

use crate::workload::Workload;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default, exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The bound of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let json = Json::parse(&text).unwrap_or(Json::Null);
    json.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn run(w: &Workload, runs: usize, seconds: f64, trace: bool) -> Result<String, String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for seed in 1..=runs {
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "run with seed {seed} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        for line in stdout.lines().filter(|l| l.starts_with("round modes:")) {
            println!("seed {seed} {line}");
        }
        let last = stdout.lines().last().unwrap_or("");
        let json = Json::parse(last).map_err(|e| format!("seed {seed}: bad result line: {e}"))?;
        correct &= json.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += json.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += json.get("failed").and_then(Json::as_u64).unwrap_or(0);
        if let Some(Json::Obj(metrics)) = json.get("metrics") {
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                values
                    .entry(name.clone())
                    .or_insert_with(|| (Vec::new(), unit))
                    .0
                    .push(v);
            }
        }
        println!("seed {seed}: {last}");
    }
    let bounds = bounds();
    let mut report = format!(
        "\n{} x {runs} runs of {seconds} s: {attempted} operations, {failed} failed, outputs {}\n",
        w.name,
        if correct { "correct" } else { "INCORRECT" }
    );
    report.push_str(&format!(
        "{:<32} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict\n",
        "metric", "q1", "median", "q3", "spread", "bound"
    ));
    for (name, (vals, unit)) in &values {
        let [q1, med, q3] = quartiles(vals);
        let spread = if med != 0.0 {
            (q3 - q1) / med.abs()
        } else {
            f64::INFINITY
        };
        let (bound, verdict) = match bounds.get(name) {
            Some(&b) if spread <= b / 3.0 => (format!("{b}"), "steady"),
            Some(&b) if spread <= b => (format!("{b}"), "within bound"),
            Some(&b) => (format!("{b}"), "OVER BOUND"),
            None => ("-".into(), "no bound"),
        };
        report.push_str(&format!(
            "{:<32} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>7}  {verdict} ({unit})\n",
            name, q1, med, q3, spread, bound
        ));
    }
    Ok(report)
}
