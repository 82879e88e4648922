//! Micro-benchmark harness with machine-readable output.
//!
//! Each benchmark is warmed up, its per-sample iteration count is
//! calibrated so one sample costs a useful fraction of the wall-clock
//! budget, and samples are collected until the budget (default 500 ms per
//! benchmark, `AIDE_BENCH_BUDGET_MS`) is spent. Results — min / median /
//! p95 / mean ± sd in nanoseconds per iteration — are printed to stdout
//! and written as one JSON line per benchmark to
//! `target/bench/<harness>.json`, the format the `BENCH_*.json`
//! performance trajectory tracks over time.
//!
//! A bench target looks like:
//!
//! ```no_run
//! use aide_testkit::bench::{black_box, Harness};
//!
//! fn main() {
//!     let mut h = Harness::from_args("my_subsystem");
//!     let mut group = h.group("my_subsystem/sort");
//!     group.bench("1k", || {
//!         let mut v: Vec<u64> = (0..1000).rev().collect();
//!         v.sort_unstable();
//!         black_box(v)
//!     });
//!     h.finish();
//! }
//! ```
//!
//! Invocation protocol (mirrors what cargo does for `harness = false`
//! targets): `cargo bench` passes `--bench`, which enables full
//! measurement; `cargo test` compiles and runs the same binary *without*
//! `--bench`, which runs every benchmark exactly once as a smoke test and
//! writes no JSON. A positional argument (`cargo bench -- <filter>`)
//! selects benchmarks by substring. `--help` prints usage; any other
//! unknown flag is an error (exit 2), so a mistyped flag never runs the
//! whole suite. libtest's own flags are accepted and ignored.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

use aide_util::stats::{quantile, OnlineStats};

/// Per-iteration timing statistics, all in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Number of timed samples.
    pub samples: u64,
    /// Iterations averaged within each sample.
    pub iters_per_sample: u64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample — the headline number, robust to scheduler noise.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Standard deviation over samples.
    pub std_dev_ns: f64,
}

struct Record {
    name: String,
    stats: BenchStats,
}

/// One bench target's runner: collects, prints and serializes results.
pub struct Harness {
    name: String,
    filter: Option<String>,
    full: bool,
    warmup: Duration,
    budget: Duration,
    min_samples: usize,
    max_samples: usize,
    records: Vec<Record>,
}

impl Harness {
    /// Builds a harness from the process arguments. `name` becomes the
    /// output file stem (`target/bench/<name>.json`).
    ///
    /// `--help` prints usage and exits 0; an unknown flag or a second
    /// filter prints usage and exits 2.
    pub fn from_args(name: &str) -> Self {
        let (bench, filter) = match parse_args(env::args().skip(1)) {
            Ok(Command::Run { bench, filter }) => (bench, filter),
            Ok(Command::Help) => {
                println!("{}", usage(name));
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{name}: {msg}\n\n{}", usage(name));
                std::process::exit(2);
            }
        };
        let full = bench || env::var("AIDE_BENCH_FORCE").is_ok_and(|v| v == "1");
        Self {
            name: name.to_string(),
            filter,
            full,
            warmup: Duration::from_millis(env_ms("AIDE_BENCH_WARMUP_MS", 100)),
            budget: Duration::from_millis(env_ms("AIDE_BENCH_BUDGET_MS", 500)),
            min_samples: 10,
            max_samples: 200,
            records: Vec::new(),
        }
    }

    /// Starts a named benchmark group; benchmarks register under
    /// `<group>/<bench>`.
    pub fn group(&mut self, prefix: &str) -> Group<'_> {
        Group {
            harness: self,
            prefix: prefix.to_string(),
        }
    }

    fn accepts(&self, full_name: &str) -> bool {
        self.filter
            .as_deref()
            .is_none_or(|f| full_name.contains(f))
    }

    fn run_loop<R>(&mut self, full_name: String, mut routine: impl FnMut() -> R) {
        if !self.accepts(&full_name) {
            return;
        }
        if !self.full {
            black_box(routine());
            println!("bench {full_name}: ok (smoke)");
            return;
        }
        // Warmup doubles as calibration: estimate the per-iteration cost.
        let warmup_start = Instant::now();
        let mut warm_iters = 0u64;
        loop {
            black_box(routine());
            warm_iters += 1;
            if warmup_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter_ns = warmup_start.elapsed().as_nanos() as f64 / warm_iters as f64;
        // Aim for ~64 samples within the budget, at least one iteration each.
        let target_sample_ns = (self.budget.as_nanos() as f64 / 64.0).max(1.0);
        let iters = ((target_sample_ns / per_iter_ns.max(1.0)) as u64).clamp(1, 10_000_000);
        let samples = self.collect_samples(|| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        });
        self.record(full_name, &samples, iters);
    }

    fn run_batched<S, R>(
        &mut self,
        full_name: String,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
    ) {
        if !self.accepts(&full_name) {
            return;
        }
        if !self.full {
            black_box(routine(setup()));
            println!("bench {full_name}: ok (smoke)");
            return;
        }
        let warmup_start = Instant::now();
        loop {
            black_box(routine(setup()));
            if warmup_start.elapsed() >= self.warmup {
                break;
            }
        }
        let samples = self.collect_samples(|| {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            t0.elapsed().as_nanos() as f64
        });
        self.record(full_name, &samples, 1);
    }

    /// Runs `sample` until the budget is spent (but at least
    /// `min_samples`), the sample cap is hit, or a slow benchmark exceeds
    /// five budgets.
    fn collect_samples(&self, mut sample: impl FnMut() -> f64) -> Vec<f64> {
        let mut samples = Vec::new();
        let start = Instant::now();
        let hard_deadline = self.budget * 5;
        loop {
            samples.push(sample());
            let elapsed = start.elapsed();
            if samples.len() >= self.max_samples
                || (elapsed >= self.budget && samples.len() >= self.min_samples)
                || elapsed >= hard_deadline
            {
                return samples;
            }
        }
    }

    fn record(&mut self, name: String, samples: &[f64], iters_per_sample: u64) {
        let mut acc = OnlineStats::new();
        for &s in samples {
            acc.push(s);
        }
        let stats = BenchStats {
            samples: acc.count(),
            iters_per_sample,
            min_ns: acc.min().unwrap_or(f64::NAN),
            median_ns: quantile(samples, 0.5).unwrap_or(f64::NAN),
            p95_ns: quantile(samples, 0.95).unwrap_or(f64::NAN),
            mean_ns: acc.mean(),
            std_dev_ns: acc.std_dev(),
        };
        println!(
            "bench {name}: {} samples x {} iters  min {}  median {}  p95 {}  mean {} ± {}",
            stats.samples,
            stats.iters_per_sample,
            fmt_ns(stats.min_ns),
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.mean_ns),
            fmt_ns(stats.std_dev_ns),
        );
        self.records.push(Record { name, stats });
    }

    /// Writes the JSON-lines report and prints its location. Call once,
    /// after all groups.
    pub fn finish(self) {
        if !self.full {
            println!("{}: smoke mode (run via `cargo bench` for measurements)", self.name);
            return;
        }
        let dir = output_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.name));
        let mut out = String::new();
        for r in &self.records {
            let s = &r.stats;
            out.push_str(&format!(
                "{{\"schema\":\"aide-bench/1\",\"harness\":{},\"bench\":{},\"samples\":{},\
                 \"iters_per_sample\":{},\"min_ns\":{},\"median_ns\":{},\"p95_ns\":{},\
                 \"mean_ns\":{},\"std_dev_ns\":{}}}\n",
                json_string(&self.name),
                json_string(&r.name),
                s.samples,
                s.iters_per_sample,
                json_number(s.min_ns),
                json_number(s.median_ns),
                json_number(s.p95_ns),
                json_number(s.mean_ns),
                json_number(s.std_dev_ns),
            ));
        }
        match fs::write(&path, out) {
            Ok(()) => println!(
                "wrote {} benchmark record(s) to {}",
                self.records.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// What a bench binary's command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    /// Run the benchmarks whose names contain `filter` (all if `None`):
    /// measured if `bench`, else once each as a smoke test.
    Run {
        /// `--bench` was given (`cargo bench` passes it).
        bench: bool,
        /// The positional name filter.
        filter: Option<String>,
    },
    /// `--help` or `-h`: print usage and exit.
    Help,
}

/// libtest flags that take no value. Test runners may pass them to every
/// test binary, bench targets included; they change nothing here.
const LIBTEST_SWITCHES: [&str; 8] = [
    "--test",
    "--nocapture",
    "--show-output",
    "-q",
    "--quiet",
    "--exact",
    "--ignored",
    "--include-ignored",
];

/// libtest options that take a value, as `--opt value` or `--opt=value`;
/// also accepted and ignored.
const LIBTEST_OPTIONS: [&str; 5] = [
    "--color",
    "--format",
    "--test-threads",
    "--skip",
    "--logfile",
];

/// Parses a bench binary's arguments (without the program name): the
/// flags `cargo bench` and `cargo test` pass, `--help`, and at most one
/// positional name filter. Anything else is an error message.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut bench = false;
    let mut filter = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.split_once('=').map_or(arg.as_str(), |(flag, _)| flag);
        match arg.as_str() {
            "--help" | "-h" => return Ok(Command::Help),
            "--bench" => bench = true,
            s if LIBTEST_SWITCHES.contains(&s) => {}
            _ if LIBTEST_OPTIONS.contains(&flag) => {
                if flag == arg && args.next().is_none() {
                    return Err(format!("{arg} needs a value"));
                }
            }
            s if s.starts_with('-') => return Err(format!("unknown flag {s}")),
            s if filter.is_some() => return Err(format!("a second filter {s:?}")),
            s => filter = Some(s.to_string()),
        }
    }
    Ok(Command::Run { bench, filter })
}

fn usage(name: &str) -> String {
    format!(
        "usage: {name} [--bench] [FILTER]\n\n\
         Runs the {name} benchmarks whose names contain FILTER (all by default).\n\
         --bench    measure and write target/bench/{name}.json (cargo bench passes it);\n\
         \x20          without it every benchmark runs once as a smoke test\n\
         --help     print this message\n\n\
         Environment: AIDE_BENCH_BUDGET_MS, AIDE_BENCH_WARMUP_MS (per-benchmark time),\n\
         AIDE_BENCH_FORCE=1 (measure without --bench). libtest flags such as --nocapture\n\
         or --test-threads are accepted and ignored."
    )
}

/// A named benchmark group borrowed from a [`Harness`].
pub struct Group<'a> {
    harness: &'a mut Harness,
    prefix: String,
}

impl Group<'_> {
    /// Benchmarks `routine` called in a timed loop.
    pub fn bench<R>(&mut self, name: &str, routine: impl FnMut() -> R) {
        let full_name = format!("{}/{name}", self.prefix);
        self.harness.run_loop(full_name, routine);
    }

    /// Benchmarks `routine` with a fresh untimed `setup` value per
    /// iteration — the `iter_batched` pattern for stateful subjects.
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        setup: impl FnMut() -> S,
        routine: impl FnMut(S) -> R,
    ) {
        let full_name = format!("{}/{name}", self.prefix);
        self.harness.run_batched(full_name, setup, routine);
    }
}

/// Resolves `target/bench/` for the enclosing workspace: honors
/// `CARGO_TARGET_DIR`, otherwise walks up from the current directory to
/// the checkout root (identified by `Cargo.lock`).
pub fn output_dir() -> PathBuf {
    if let Ok(dir) = env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("bench");
    }
    let mut dir = env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("bench");
        }
        if !dir.pop() {
            return PathBuf::from("target/bench");
        }
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    match env::var(name) {
        Ok(raw) => raw
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}={raw:?} is not a millisecond count")),
        Err(_) => default,
    }
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".to_string()
    } else if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_harness() -> Harness {
        Harness {
            name: "selftest".to_string(),
            filter: None,
            full: true,
            warmup: Duration::from_millis(5),
            budget: Duration::from_millis(20),
            min_samples: 3,
            max_samples: 50,
            records: Vec::new(),
        }
    }

    #[test]
    fn stats_are_sane_for_a_cheap_routine() {
        let mut h = test_harness();
        h.run_loop("selftest/noop".to_string(), || black_box(1u64 + 1));
        assert_eq!(h.records.len(), 1);
        let s = &h.records[0].stats;
        assert!(s.samples >= 3);
        assert!(s.iters_per_sample >= 1);
        assert!(s.min_ns <= s.median_ns);
        assert!(s.median_ns <= s.p95_ns + 1e-9);
        assert!(s.mean_ns > 0.0);
    }

    #[test]
    fn batched_setup_is_not_timed() {
        let mut h = test_harness();
        h.run_batched(
            "selftest/batched".to_string(),
            || vec![0u8; 1024],
            |v| v.len(),
        );
        assert_eq!(h.records.len(), 1);
        assert_eq!(h.records[0].stats.iters_per_sample, 1);
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut h = test_harness();
        h.filter = Some("only_this".to_string());
        h.run_loop("selftest/other".to_string(), || black_box(0u64));
        h.run_loop("selftest/only_this".to_string(), || black_box(0u64));
        assert_eq!(h.records.len(), 1);
        assert_eq!(h.records[0].name, "selftest/only_this");
    }

    #[test]
    fn smoke_mode_runs_once_and_records_nothing() {
        let mut h = test_harness();
        h.full = false;
        let mut calls = 0u32;
        h.run_loop("selftest/smoke".to_string(), || calls += 1);
        assert_eq!(calls, 1);
        assert!(h.records.is_empty());
    }

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_select_mode_and_filter() {
        let run = |bench, filter: Option<&str>| {
            Ok(Command::Run {
                bench,
                filter: filter.map(str::to_string),
            })
        };
        assert_eq!(parse(&[]), run(false, None));
        assert_eq!(parse(&["--bench"]), run(true, None));
        assert_eq!(parse(&["--bench", "eval"]), run(true, Some("eval")));
        assert_eq!(parse(&["eval", "--bench"]), run(true, Some("eval")));
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
        assert_eq!(parse(&["--bench", "-h"]), Ok(Command::Help));
    }

    #[test]
    fn libtest_flags_are_accepted_and_ignored() {
        let plain = Ok(Command::Run {
            bench: false,
            filter: None,
        });
        for args in [
            &["--test"][..],
            &["-q"],
            &["--quiet", "--nocapture", "--show-output"],
            &["--exact", "--ignored", "--include-ignored"],
            &["--test-threads", "4"],
            &["--test-threads=4", "--color=never", "--format", "terse"],
            &["--skip", "slow", "--logfile=out.txt"],
        ] {
            assert_eq!(parse(args), plain, "{args:?}");
        }
    }

    #[test]
    fn unknown_flags_and_extra_filters_are_errors() {
        assert_eq!(parse(&["--bogus"]), Err("unknown flag --bogus".to_string()));
        assert_eq!(parse(&["-x"]), Err("unknown flag -x".to_string()));
        assert_eq!(
            parse(&["--bench=1"]),
            Err("unknown flag --bench=1".to_string())
        );
        assert_eq!(parse(&["a", "b"]), Err("a second filter \"b\"".to_string()));
        assert_eq!(parse(&["--skip"]), Err("--skip needs a value".to_string()));
    }

    #[test]
    fn json_escaping_is_valid() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("tab\tend"), "\"tab\\u0009end\"");
        assert_eq!(json_number(1234.5), "1234.5");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
