//! The end-to-end run: boot the real server several times for `setup_s`,
//! then drive it with closed-loop analysts over TCP for the run's seconds.

use std::path::Path;
use std::time::Instant;

use aide_util::json::Json;

use crate::analyst::{run_session, SessionLog, Stop, Tally};
use crate::report::{mean, median, metric, quantile, Metric};
use crate::server::{Conn, Server, Transport};
use crate::workload::{SessionSpec, Workload};

/// What the timed phase of a run produced.
pub struct LoadOutcome {
    pub setup_s: Vec<f64>,
    pub sessions: Vec<SessionLog>,
    /// Per connection: (sessions completed, seconds from start to the end
    /// of its last completed session).
    pub per_conn: Vec<(usize, f64)>,
    pub rss_mib: f64,
    pub tally: Tally,
}

/// Checks the hello frame against the dataset and returns its `dims`.
pub fn check_hello(hello: &str, rows: usize, tally: &mut Tally) -> usize {
    let j = Json::parse(hello).unwrap_or(Json::Null);
    let dims = j.get("dims").and_then(Json::as_u64).unwrap_or(0) as usize;
    if j.get("hello").and_then(Json::as_str) != Some("aide-serve/1")
        || j.get("rows").and_then(Json::as_u64) != Some(rows as u64)
        || dims != 2
    {
        tally.violation(format!("unexpected hello frame {hello:?}"));
    }
    dims
}

/// Boots the server `n` times, timing each boot to its hello frame, and
/// keeps the last one running.
pub fn boot(
    bin: &Path,
    view: &Path,
    w: &Workload,
    n: usize,
    setup: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<Server, String> {
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (server, conn, dt) = Server::boot(bin, view)?;
        check_hello(&conn.hello, w.rows, tally);
        setup.push(dt.as_secs_f64());
        last = Some(server);
    }
    Ok(last.expect("at least one boot"))
}

/// What [`drive`] produced.
pub struct Driven {
    /// Completed sessions, in session-index order.
    pub sessions: Vec<SessionLog>,
    /// Per connection: (sessions completed, seconds from the start to the
    /// end of its last completed session).
    pub per_conn: Vec<(usize, f64)>,
    pub tally: Tally,
}

/// One connection's sessions, the end of its last one, and its tally.
type ConnOutcome = Result<(Vec<SessionLog>, f64, Tally), String>;

/// Runs `per_conn` analyst sessions on each of `w.conns` connections.
/// Connection `c` runs sessions `c`, `c + conns`, `c + 2·conns`, …
pub fn drive(
    server: &Server,
    w: &Workload,
    specs: &[SessionSpec],
    per_conn: usize,
) -> Result<Driven, String> {
    let start = Instant::now();
    let results: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut conn = Conn::connect(server.addr)?;
                    let dims = check_hello(&conn.hello, w.rows, &mut tally);
                    let mut logs = Vec::new();
                    let mut done_at = 0.0;
                    for j in 0..per_conn {
                        let k = c + j * w.conns;
                        let Some(spec) = specs.get(k) else {
                            return Err(format!("ran out of session specs at {k}"));
                        };
                        match run_session(&mut conn, w, spec, dims, false, &mut tally) {
                            Ok(log) => {
                                done_at = start.elapsed().as_secs_f64();
                                logs.push(log);
                            }
                            Err(Stop::Failed) => {}
                            Err(Stop::Broken) => break,
                        }
                    }
                    Ok((logs, done_at, tally))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect()
    });
    let mut out = Driven {
        sessions: Vec::new(),
        per_conn: Vec::new(),
        tally: Tally::default(),
    };
    for r in results {
        let (logs, done_at, tally) = r?;
        out.per_conn.push((logs.len(), done_at));
        out.sessions.extend(logs);
        out.tally.merge(tally);
    }
    out.sessions.sort_by_key(|s| s.index);
    Ok(out)
}

/// Reads the server's `stats` op on a fresh connection.
pub fn server_stats(server: &Server, tally: &mut Tally) -> Result<Json, String> {
    let mut conn = Conn::connect(server.addr)?;
    tally.attempted += 1;
    let reply = conn.call(r#"{"v":1,"op":"stats"}"#)?;
    let j = Json::parse(&reply).map_err(|e| format!("stats: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        tally.failed += 1;
    }
    Ok(j)
}

/// Boots the server, drives the run's sessions, reads its peak RSS, and
/// boots it again: half the boots come before the timed sessions and half
/// after, so `setup_s` spans the run instead of its first second.
pub fn load(
    bin: &Path,
    view: &Path,
    w: &Workload,
    specs: &[SessionSpec],
    seconds: f64,
) -> Result<LoadOutcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(w.boots);
    let before = w.boots.div_ceil(2);
    let server = boot(bin, view, w, before, &mut setup_s, &mut tally)?;
    let driven = drive(&server, w, specs, w.sessions_per_conn(seconds))?;
    tally.merge(driven.tally);
    let sessions = driven.sessions;
    let stats = server_stats(&server, &mut tally)?;
    let created = stats
        .get("sessions_created")
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize;
    if created < sessions.len() {
        tally.violation(format!(
            "stats: {created} sessions created, {} completed",
            sessions.len()
        ));
    }
    let rss_mib = server.peak_rss_mib()?;
    drop(server);
    if w.boots > before {
        drop(boot(
            bin,
            view,
            w,
            w.boots - before,
            &mut setup_s,
            &mut tally,
        )?);
    }
    Ok(LoadOutcome {
        setup_s,
        sessions,
        per_conn: driven.per_conn,
        rss_mib,
        tally,
    })
}

/// The end-to-end metrics of a run, and a human-readable summary.
/// `probe` is the quality probe's `(final_f_mean, labels_to_f70_mean)`
/// for workloads whose sessions carry no target; otherwise the quality
/// metrics come from the sessions' own `f` and `final_f`.
pub fn metrics(
    w: &Workload,
    out: &LoadOutcome,
    probe: Option<(f64, f64)>,
) -> (Vec<Metric>, String) {
    let creates: Vec<f64> = out.sessions.iter().map(|s| s.create_ms).collect();
    let rounds: Vec<f64> = out
        .sessions
        .iter()
        .flat_map(|s| s.rounds.iter().map(|r| r.ms))
        .collect();
    let steering: Vec<f64> = out
        .sessions
        .iter()
        .flat_map(|s| s.rounds.iter().filter(|r| r.steering).map(|r| r.ms))
        .collect();
    let discovery: Vec<f64> = out
        .sessions
        .iter()
        .flat_map(|s| s.rounds.iter().filter(|r| !r.steering).map(|r| r.ms))
        .collect();
    let sessions_per_s: f64 = out
        .per_conn
        .iter()
        .filter(|(_, t)| *t > 0.0)
        .map(|(n, t)| *n as f64 / t)
        .sum();
    let (final_f, labels_to_f) = probe.unwrap_or_else(|| {
        let finals: Vec<f64> = out
            .sessions
            .iter()
            .map(|s| s.final_f.unwrap_or(0.0))
            .collect();
        let labels: Vec<f64> = out
            .sessions
            .iter()
            .map(|s| s.labels_to_f_target(w.label_cap()) as f64)
            .collect();
        (mean(&finals), mean(&labels))
    });
    let metrics = vec![
        metric("setup_s", median(&out.setup_s), "s"),
        metric("open_p50_ms", median(&creates), "ms"),
        metric("round_p50_ms", median(&rounds), "ms"),
        metric("round_p95_ms", quantile(&rounds, 0.95), "ms"),
        metric("sessions_per_s", sessions_per_s, "1/s"),
        metric("rss_peak_mb", out.rss_mib, "MiB"),
        metric("final_f_mean", final_f, "F"),
        metric("labels_to_f70_mean", labels_to_f, "labels"),
    ];
    let modes = mode_check(&steering, &discovery, median(&rounds));
    let boots: Vec<String> = out
        .setup_s
        .iter()
        .map(|s| format!("{:.1}", s * 1e3))
        .collect();
    let summary = format!(
        "{}: boots [{}] ms, {} sessions, {} creates, {} rounds ({} steering p50 {:.3} ms, {} discovery-only p50 {:.3} ms), {} rows repeated within a batch",
        w.name,
        boots.join(" "),
        out.sessions.len(),
        creates.len(),
        rounds.len(),
        steering.len(),
        median(&steering),
        discovery.len(),
        median(&discovery),
        out.tally.repeats,
    );
    (metrics, format!("{summary}\n{modes}"))
}

/// Where the round median sits between the two kinds of rounds. Before a
/// session has labeled both classes, discovery alone proposes (cheap on a
/// 1M view, costly on 10M); after, the model-driven phases run too. If
/// the median fell in the gap between the two, a small change in their
/// mix would move it a lot, so the check reports where in the majority
/// kind's distribution the median lies; 10–90 % is inside it.
fn mode_check(steering: &[f64], discovery: &[f64], p50: f64) -> String {
    let total = (steering.len() + discovery.len()).max(1) as f64;
    let (name, major) = if steering.len() >= discovery.len() {
        ("steering", steering)
    } else {
        ("discovery-only", discovery)
    };
    let rank = major.iter().filter(|&&v| v <= p50).count() as f64 / major.len().max(1) as f64;
    let verdict = if (0.1..=0.9).contains(&rank) {
        "inside it"
    } else {
        "IN THE GAP"
    };
    format!(
        "round modes: {name} rounds are {:.0}% of {total}; the round p50 {p50:.3} ms is at their {:.0}th percentile: {verdict}",
        100.0 * major.len() as f64 / total,
        100.0 * rank
    )
}
