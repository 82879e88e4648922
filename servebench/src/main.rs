//! End-to-end benchmark of `aide serve`.
//!
//! ```text
//! servebench --workload NAME --seed N --seconds S --trace 0|1
//! servebench --workload NAME --steady RUNS [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. See `servebench/README.md` for the
//! workloads, the metrics and what each layer metric should move.

mod analyst;
mod data;
mod quality;
mod report;
mod server;
mod steady;
mod traced;
mod untraced;
mod workload;

use std::process::ExitCode;

use crate::report::result_line;

struct Args {
    workload: workload::Workload,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut steady = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workload::find(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--steady" => steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        steady,
    })
}

/// One benchmark run; returns the result line.
fn run(args: &Args) -> Result<String, String> {
    if !std::path::Path::new("crates/core/src/serve.rs").is_file() {
        return Err("run from the repository root: no server sources here".into());
    }
    let w = &args.workload;
    let seed = args.seed.ok_or("--seed is required")?;
    let bin = server::build_server()?;
    let prepared = data::prepare(w, seed)?;
    println!(
        "dataset {}: {} rows, {} bytes, checksum {:016x}",
        prepared.path.display(),
        prepared.view.len(),
        prepared.bytes,
        prepared.checksum
    );
    let sessions = (w.sessions_per_conn(args.seconds) * w.conns).max(quality::PROBE_SESSIONS);
    let specs = workload::session_specs(&prepared.view, seed, sessions as u64);
    if args.trace {
        let (tally, metrics, table) = traced::run(&bin, prepared, w, &specs, args.seconds, seed)?;
        println!("{table}");
        for note in &tally.notes {
            println!("note: {note}");
        }
        return Ok(result_line(&tally, &metrics));
    }
    let out = untraced::load(&bin, &prepared.path, w, &specs, args.seconds)?;
    let start = std::time::Instant::now();
    let probe = (!w.target_in_create).then(|| quality::probe(&prepared.view, &specs));
    if probe.is_some() {
        println!("quality probe: {:.2} s", start.elapsed().as_secs_f64());
    }
    let (metrics, summary) = untraced::metrics(w, &out, probe);
    println!("{summary}");
    for note in &out.tally.notes {
        println!("note: {note}");
    }
    Ok(result_line(&out.tally, &metrics))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.steady {
        Some(runs) => steady::run(&args.workload, runs, args.seconds, args.trace),
        None => run(&args),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
