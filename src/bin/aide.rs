//! `aide` — command-line interactive data exploration.
//!
//! ```text
//! aide generate --dataset sdss --rows 100000 --out sky.csv
//! aide explore  --csv sky.csv --attrs rowc,colc
//! aide explore  --csv sky.csv --attrs rowc,colc \
//!               --target "820,1230:1000,1400" --trace session.jsonl
//! aide dataset pack --csv sky.csv --attrs rowc,colc --out sky.aideview
//! aide dataset info --view sky.aideview
//! aide query    --csv sky.csv --sql "SELECT * FROM data WHERE rowc < 500"
//! aide serve    --view sky.aideview --addr 127.0.0.1:0 --trace-dir traces/
//! aide simplify --sql "SELECT * FROM t WHERE a >= 1 AND a >= 2"
//! ```
//!
//! `dataset pack` freezes a CSV projection into the columnar
//! `aide-view/1` binary format (lane-major `f64` bit patterns — see
//! `ARCHITECTURE.md`); `dataset info` validates such a file and prints
//! its shape, whether its row ids are stored or are `0..n`, and each
//! lane's count, min, mean and max. The scale benches stream multi-million-row substrates from
//! these files instead of regenerating them.
//!
//! `explore` runs the steering loop of the paper: each round extracts a
//! small batch of strategically chosen rows, asks for `y`/`n` labels on
//! stdin (one per row; `q` finishes), and prints the refined SQL query.
//! With `--target` a simulated user defined by raw-coordinate
//! rectangles answers instead of stdin (unattended sessions, CI); with
//! `--trace FILE` the session writes an `aide-trace/1` JSONL stream —
//! render or validate it with `scripts/trace_report.py` (schema in
//! `ARCHITECTURE.md`).
//!
//! `serve` hosts many concurrent exploration sessions over one packed
//! dataset on plain TCP — newline-delimited JSON, protocol
//! `aide-serve/1`, spec in `PROTOCOL.md`. `scripts/serve_check.py` is a
//! stdlib-Python reference client.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

use aide::core::{
    CallbackOracle, ExplorationSession, SessionConfig, StopCondition, TargetQuery,
};
use aide::data::csv::{read_csv, write_csv};
use aide::data::{auction_like, sdss_like, Table};
use aide::index::{ExtractionEngine, IndexKind};
use aide::query::{parse_selection, simplify};
use aide::util::geom::Rect;
use aide::util::rng::Xoshiro256pp;
use aide::util::trace::Tracer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage("missing subcommand");
    };
    // `dataset` nests an action word before its flags.
    let flag_start = if command == "dataset" { 2 } else { 1 };
    let flags = match Flags::parse(args.get(flag_start..).unwrap_or(&[])) {
        Ok(f) => f,
        Err(e) => return usage(&e),
    };
    let outcome = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "describe" => cmd_describe(&flags),
        "explore" => cmd_explore(&flags),
        "dataset" => cmd_dataset(&args[1..], &flags),
        "query" => cmd_query(&flags),
        "serve" => cmd_serve(&flags),
        "simplify" => cmd_simplify(&flags),
        other => return usage(&format!("unknown subcommand `{other}`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!(
        "usage:\n  aide generate --dataset sdss|auction --rows N --out FILE [--seed N]\n  \
         aide describe --csv FILE\n  \
         aide explore --csv FILE --attrs a,b[,c...] [--batch N] [--max-iter N] [--seed N]\n  \
         \x20             [--trace FILE.jsonl] [--target lo1,lo2:hi1,hi2[;...]] [--max-labels N]\n  \
         aide dataset pack --csv FILE --attrs a,b[,c...] --out FILE.aideview\n  \
         aide dataset info --view FILE.aideview\n  \
         aide query --csv FILE --sql QUERY [--limit N]\n  \
         aide serve --view FILE.aideview [--addr HOST:PORT] [--trace-dir DIR]\n  \
         \x20          [--idle-timeout SECS] [--max-sessions N] [--batch N]\n  \
         aide simplify --sql QUERY"
    );
    ExitCode::FAILURE
}

/// Minimal `--flag value` parser.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, found `{flag}`"));
            };
            let Some(value) = iter.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            out.push((name.to_owned(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} got a bad value `{v}`")),
        }
    }
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let dataset = flags.require("dataset")?;
    let rows: usize = flags.parse_num("rows", 100_000)?;
    let out = flags.require("out")?;
    let seed: u64 = flags.parse_num("seed", 1)?;
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let table = match dataset {
        "sdss" => sdss_like(rows).generate(&mut rng),
        "auction" => auction_like(rows, &mut rng),
        other => return Err(format!("unknown dataset `{other}` (sdss|auction)")),
    };
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut writer = BufWriter::new(file);
    write_csv(&table, &mut writer).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows of `{}` to {out}",
        table.num_rows(),
        table.name()
    );
    Ok(())
}

fn load_csv(path: &str) -> Result<Table, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv("data", BufReader::new(file)).map_err(|e| e.to_string())
}

fn cmd_describe(flags: &Flags) -> Result<(), String> {
    let table = load_csv(flags.require("csv")?)?;
    println!(
        "{} rows, {} columns\n",
        table.num_rows(),
        table.num_columns()
    );
    println!(
        "{:<20} {:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "column", "type", "distinct", "min", "max", "mean", "std"
    );
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.4}"),
        None => "-".to_owned(),
    };
    for s in table.describe() {
        println!(
            "{:<20} {:>6} {:>9} {:>12} {:>12} {:>12} {:>12}",
            s.name,
            s.dtype.to_string(),
            s.distinct,
            fmt(s.min),
            fmt(s.max),
            fmt(s.mean),
            fmt(s.std_dev)
        );
    }
    Ok(())
}

/// Parse `--target lo1,lo2:hi1,hi2[;lo1,lo2:hi1,hi2...]` into raw-coordinate
/// rectangles, one per `;`-separated range, each with `dims` coordinates.
fn parse_target(spec: &str, dims: usize) -> Result<Vec<Rect>, String> {
    let parse_point = |s: &str| -> Result<Vec<f64>, String> {
        s.split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("bad coordinate `{v}` in --target"))
            })
            .collect()
    };
    spec.split(';')
        .map(|range| {
            let (lo, hi) = range
                .split_once(':')
                .ok_or_else(|| format!("--target range `{range}` needs a `:`"))?;
            let lo = parse_point(lo)?;
            let hi = parse_point(hi)?;
            if lo.len() != dims || hi.len() != dims {
                return Err(format!(
                    "--target range `{range}` has {}:{} coordinates but --attrs names {dims}",
                    lo.len(),
                    hi.len()
                ));
            }
            Ok(Rect::new(lo, hi))
        })
        .collect()
}

/// Write the session trace (header line plus every buffered event) as JSONL.
fn write_trace(path: &str, tracer: &Tracer) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut writer = BufWriter::new(file);
    tracer
        .write_jsonl(&mut writer, false)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    writer.flush().map_err(|e| e.to_string())
}

fn cmd_explore(flags: &Flags) -> Result<(), String> {
    let table = load_csv(flags.require("csv")?)?;
    let attrs: Vec<&str> = flags.require("attrs")?.split(',').collect();
    let batch: usize = flags.parse_num("batch", 10)?;
    let max_iter: usize = flags.parse_num("max-iter", 50)?;
    let seed: u64 = flags.parse_num("seed", 7)?;
    let view = Arc::new(
        table
            .numeric_view(&attrs)
            .map_err(|e| format!("bad exploration attributes: {e}"))?,
    );
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);

    let trace_path = flags.get("trace");
    let mut config = SessionConfig {
        samples_per_iteration: batch,
        ..SessionConfig::default()
    };
    if trace_path.is_some() {
        config.tracer = Tracer::new();
    }

    // Non-interactive mode: a known target rectangle plays the user, so a
    // full steering session (and its trace) can run unattended.
    if let Some(spec) = flags.get("target") {
        let max_labels: usize = flags.parse_num("max-labels", 500)?;
        let raw_rects = parse_target(spec, view.dims())?;
        let target = TargetQuery::new(
            raw_rects
                .iter()
                .map(|r| view.mapper().normalize_rect(r))
                .collect(),
        );
        let tracer = config.tracer.clone();
        let mut session = ExplorationSession::new(
            config,
            engine,
            Arc::clone(&view),
            target,
            Xoshiro256pp::seed_from_u64(seed),
        );
        println!("exploring {} rows over {:?}", table.num_rows(), attrs);
        let result = session.run(StopCondition {
            target_f: None,
            max_labels: Some(max_labels),
            max_iterations: max_iter,
        });
        let query = simplify(&session.predicted_selection("data"));
        let matched = query.evaluate(&table).map_err(|e| e.to_string())?;
        println!("simulated target: {spec}");
        println!("final query: {}", query.to_sql());
        println!(
            "matches {} of {} rows; {} labels over {} iterations; F = {:.3}",
            matched.len(),
            table.num_rows(),
            result.total_labeled,
            result.iterations,
            result.final_f
        );
        println!("{}", result.cost_summary());
        if let Some(path) = trace_path {
            write_trace(path, &tracer)?;
            println!("trace written to {path}");
        }
        return Ok(());
    }

    let table_for_oracle = table.clone();
    let attrs_owned: Vec<String> = attrs.iter().map(|s| s.to_string()).collect();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let done_in_oracle = Arc::clone(&done);
    let stdin = std::io::stdin();
    let oracle = CallbackOracle::new(move |sample: &aide::index::Sample| {
        if done_in_oracle.load(std::sync::atomic::Ordering::Relaxed) {
            return false;
        }
        let row = sample.row_id as usize;
        let shown: Vec<String> = attrs_owned
            .iter()
            .map(|a| {
                let v = table_for_oracle
                    .column_by_name(a)
                    .expect("attribute exists")
                    .value(row);
                format!("{a}={v}")
            })
            .collect();
        loop {
            print!("row {row}: {} — relevant? [y/n/q] ", shown.join(", "));
            std::io::stdout().flush().expect("stdout");
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                done_in_oracle.store(true, std::sync::atomic::Ordering::Relaxed);
                return false;
            }
            match line.trim().to_ascii_lowercase().as_str() {
                "y" | "yes" => return true,
                "n" | "no" => return false,
                "q" | "quit" => {
                    done_in_oracle.store(true, std::sync::atomic::Ordering::Relaxed);
                    return false;
                }
                _ => println!("  please answer y, n or q"),
            }
        }
    });
    let tracer = config.tracer.clone();
    let mut session = ExplorationSession::with_oracle(
        config,
        engine,
        Arc::clone(&view),
        Box::new(oracle),
        None,
        Xoshiro256pp::seed_from_u64(seed),
    );
    println!(
        "exploring {} rows over {:?}; label each shown row y/n, or q to finish\n",
        table.num_rows(),
        attrs
    );
    for _ in 0..max_iter {
        let report = session.run_iteration().clone();
        if done.load(std::sync::atomic::Ordering::Relaxed) || report.new_samples == 0 {
            break;
        }
        let sql = simplify(&session.predicted_selection("data")).to_sql();
        println!(
            "\n-- {} labels, {} relevant, {} region(s)\n-- {}\n",
            report.total_labeled, report.relevant_labeled, report.num_regions, sql
        );
    }
    session.finish_trace();
    let query = simplify(&session.predicted_selection("data"));
    let matched = query.evaluate(&table).map_err(|e| e.to_string())?;
    println!("\nfinal query: {}", query.to_sql());
    println!(
        "matches {} of {} rows after {} reviews",
        matched.len(),
        table.num_rows(),
        session.reviewed()
    );
    println!("{}", session.result().cost_summary());
    if let Some(path) = trace_path {
        write_trace(path, &tracer)?;
        println!("trace written to {path}");
    }
    if view.dims() == 2 {
        println!(
            "\npredicted regions (o) over the data (·/:):\n{}",
            aide::core::viz::render_2d(&view, None, &session.relevant_regions(), 64, 20)
        );
    }
    Ok(())
}

fn cmd_dataset(args: &[String], flags: &Flags) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("pack") => {
            let table = load_csv(flags.require("csv")?)?;
            let attrs: Vec<&str> = flags.require("attrs")?.split(',').collect();
            let out = flags.require("out")?;
            let view = table
                .numeric_view(&attrs)
                .map_err(|e| format!("bad attributes: {e}"))?;
            aide::data::write_view(&view, out.as_ref())
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            println!(
                "packed {} rows x {} lanes ({:?}) into {out}",
                view.len(),
                view.dims(),
                attrs
            );
            Ok(())
        }
        Some("info") => {
            let path = flags.require("view")?;
            let view = aide::data::load_view(path.as_ref())
                .map_err(|e| format!("cannot load {path}: {e}"))?;
            let ids = match view.stored_row_ids() {
                Some(_) => "stored",
                None => "identity (not stored)",
            };
            println!(
                "aide-view/1: {} rows, {} lanes, row ids {ids}",
                view.len(),
                view.dims()
            );
            let fmt = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.6}"));
            let domains = view.mapper().domains();
            for (d, lane) in view.describe_lanes().iter().enumerate() {
                let dom = &domains[d];
                println!(
                    "  lane {d}: {} in [{}, {}]: count {}, min {}, mean {}, max {}",
                    lane.name,
                    dom.lo(),
                    dom.hi(),
                    lane.count,
                    fmt(lane.min),
                    fmt(lane.mean),
                    fmt(lane.max)
                );
            }
            Ok(())
        }
        _ => Err("dataset needs an action: `pack` or `info`".to_owned()),
    }
}

/// `aide serve` — the multi-session exploration server (`aide-serve/1`
/// protocol, see `PROTOCOL.md`). Loads a packed `aide-view/1` dataset,
/// builds one grid index and one shared region cache, and serves any
/// number of concurrent sessions over plain TCP. Port 0 binds an
/// ephemeral port; the chosen address is printed as `listening on
/// HOST:PORT` before the accept loop starts, so scripts can parse it.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let path = flags.require("view")?;
    let view = aide::data::load_view(path.as_ref())
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:0");
    let idle_secs: u64 = flags.parse_num("idle-timeout", 600)?;
    let config = aide::core::ServeConfig {
        batch: flags.parse_num("batch", 20)?,
        idle_timeout: std::time::Duration::from_secs(idle_secs),
        max_sessions: flags.parse_num("max-sessions", 64)?,
        trace_dir: flags.get("trace-dir").map(std::path::PathBuf::from),
    };
    if config.batch == 0 || config.batch > aide::core::serve::MAX_BATCH {
        return Err(format!(
            "--batch must be in 1..={}",
            aide::core::serve::MAX_BATCH
        ));
    }
    if let Some(dir) = &config.trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create trace dir {}: {e}", dir.display()))?;
    }
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "serving {} rows x {} lanes from {path}",
        view.len(),
        view.dims()
    );
    println!("listening on {local}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let host = Arc::new(aide::core::SessionHost::new(view, config));
    aide::core::serve_listener(listener, host)
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    let table = load_csv(flags.require("csv")?)?;
    let sql = flags.require("sql")?;
    let limit: usize = flags.parse_num("limit", 10)?;
    let query = parse_selection(sql).map_err(|e| e.to_string())?;
    let rows = query.evaluate(&table).map_err(|e| e.to_string())?;
    println!("{} rows match", rows.len());
    let header: Vec<&str> = table.schema().fields().iter().map(|f| f.name()).collect();
    println!("{}", header.join("\t"));
    for &row in rows.iter().take(limit) {
        let cells: Vec<String> = (0..table.num_columns())
            .map(|c| table.value(row, c).to_string())
            .collect();
        println!("{}", cells.join("\t"));
    }
    if rows.len() > limit {
        println!("… ({} more; raise --limit to see them)", rows.len() - limit);
    }
    Ok(())
}

fn cmd_simplify(flags: &Flags) -> Result<(), String> {
    let sql = flags.require("sql")?;
    let query = parse_selection(sql).map_err(|e| e.to_string())?;
    println!("{}", simplify(&query).to_sql());
    Ok(())
}
