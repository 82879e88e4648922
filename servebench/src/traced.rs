//! The traced run: per-layer attribution measured from outside the server.
//!
//! End-to-end numbers never come from here. The run drives a slice of the
//! workload three times, every pass over the same session specs in the
//! same order on one connection:
//!
//! 1. **Traced** — the real `aide serve`; every request and response is
//!    kept, and each request is also handed, right after its round trip,
//!    to an in-process `SessionHost::handle` fed the same sequence. Every
//!    in-process response must equal the server's byte for byte; TCP minus
//!    `handle` on the same frame is the network overhead.
//! 2. **Untraced** — a fresh server, round trips only.
//!    `trace_overhead_pct` compares pass 1's `label` p50 with this one's.
//! 3. **Replica** — an `ExplorationSession` built like the server builds
//!    one (fork of a grid template with a shared cache, `threads: 1`, the
//!    session seed), driven by `propose_iteration`/`complete_iteration`
//!    with the same labels. Its proposals, `f` and SQL must equal the
//!    server's. Beside it the benchmark times the public calls the session
//!    makes internally, on the same inputs: `IncrementalTree::refit` on
//!    the round's new labels, `evaluate_model` on the round's tree, and
//!    `predicted_selection(..).to_sql()`. Index and k-means times come
//!    from the `wave`, `phase_end` and `model_fit` events the session's
//!    own tracer already emits.
//!
//! Spans are kept in memory and written once, at the end, to
//! `servebench/out/spans-<workload>-<seed>.jsonl`.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use aide_core::serve::{ServeConfig, SessionHost};
use aide_core::{evaluate_model_with, CallbackOracle, ExplorationSession, SessionConfig};
use aide_data::{load_view, NumericView};
use aide_index::{ExtractionEngine, IndexKind, Sample, SharedRegionCache};
use aide_ml::IncrementalTree;
use aide_util::json::{obj, Json};
use aide_util::par::Pool;
use aide_util::rng::Xoshiro256pp;
use aide_util::trace::{Event, Tracer, Value};

use crate::analyst::{run_session, Exchange, Op, SessionLog, Stop, Tally};
use crate::data::Prepared;
use crate::report::{mean, median, metric, Metric};
use crate::server::{Conn, Server, Transport};
use crate::untraced::{check_hello, drive, server_stats};
use crate::workload::{SessionSpec, Workload};

const OUT_DIR: &str = "servebench/out";

/// One span: a timed call the benchmark made.
struct Span {
    id: u64,
    parent: Option<u64>,
    /// The recorded exchange the span belongs to (one per request).
    request: u64,
    name: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Spans of the run, kept in memory until the end.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// Records a span from `start` to now and returns `(id, ms)`.
    fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
    ) -> (u64, f64) {
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (self.push(name, parent, request, start, ms), ms)
    }

    /// Records a span of `ms` milliseconds that began at `start`.
    fn push(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        ms: f64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: ms * 1e3,
        });
        id
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            out.push_str(
                &obj(vec![
                    ("id", Json::Num(s.id as f64)),
                    ("parent", parent),
                    ("request", Json::Num(s.request as f64)),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_us", Json::Num(s.start_us)),
                    ("dur_us", Json::Num(s.dur_us)),
                ])
                .to_string(),
            );
            out.push('\n');
        }
        let mut file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .and_then(|_| file.flush())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Per-`label`-round sums; a label round is `complete_iteration` of the
/// labeled batch plus `propose_iteration` of the next one, as the server
/// runs it.
#[derive(Default)]
struct Layers {
    rounds: usize,
    tcp_ms: f64,
    decode_us: f64,
    encode_us: f64,
    server_json_us: f64,
    frame_bytes: f64,
    propose_ms: f64,
    complete_ms: f64,
    wave_us: f64,
    wave_misses: u64,
    miss_wave_us: f64,
    select_us: f64,
    kmeans_us: f64,
    refit_ms: f64,
    refits: usize,
    rebuilds: usize,
    eval_ms: f64,
    evals: usize,
    // Per iteration, from `IterationReport`.
    iterations: usize,
    examined: u64,
    returned: u64,
    new_samples: u64,
    cached_row_ids: f64,
}

impl Layers {
    /// Folds one label round's trace events in.
    fn absorb(&mut self, events: &[Event]) {
        let field = |e: &Event, k: &str| -> u64 {
            e.fields
                .iter()
                .find(|(n, _)| *n == k)
                .and_then(|(_, v)| match v {
                    Value::U64(x) => Some(*x),
                    _ => None,
                })
                .unwrap_or(0)
        };
        let is = |e: &Event, k: &str, want: &str| {
            e.fields
                .iter()
                .any(|(n, v)| *n == k && matches!(v, Value::Str(s) if s == want))
        };
        let (mut phases, mut waves, mut kmeans) = (0u64, 0u64, 0u64);
        for e in events {
            match e.kind {
                "wave" => {
                    let dur = field(e, "dur_us");
                    let (hits, misses) = (field(e, "cache_hits"), field(e, "cache_misses"));
                    waves += dur;
                    if misses > 0 {
                        self.wave_misses += misses;
                        self.miss_wave_us += dur as f64;
                        self.cached_row_ids += field(e, "tuples_returned") as f64 * misses as f64
                            / (hits + misses) as f64;
                    }
                }
                "phase_end" => phases += field(e, "dur_us"),
                "model_fit" if is(e, "model", "kmeans") => kmeans += field(e, "fit_us"),
                _ => {}
            }
        }
        self.wave_us += waves as f64;
        self.kmeans_us += kmeans as f64;
        self.select_us += phases.saturating_sub(waves + kmeans) as f64;
    }

    fn per_round(&self, total: f64) -> f64 {
        total / self.rounds.max(1) as f64
    }
}

fn proposals_match(samples: &[Sample], response: &Json) -> bool {
    let Some(props) = response.get("proposals").and_then(Json::as_array) else {
        return false;
    };
    props.len() == samples.len()
        && props.iter().zip(samples).all(|(p, s)| {
            p.get("row").and_then(Json::as_u64) == Some(s.row_id as u64)
                && p.get("point").and_then(Json::as_array).is_some_and(|pt| {
                    pt.len() == s.point.len()
                        && pt
                            .iter()
                            .zip(&s.point)
                            .all(|(a, b)| a.as_f64().map(f64::to_bits) == Some(b.to_bits()))
                })
        })
}

/// One request answered by the server and by the in-process host.
struct Pair {
    tcp_start: Instant,
    tcp_ms: f64,
    handle_start: Instant,
    handle_ms: f64,
    same: bool,
}

/// A transport that sends each frame to the server and then hands it to
/// an in-process host, timing both.
struct Tee<'a> {
    conn: Conn,
    host: &'a SessionHost,
    pairs: Vec<Pair>,
}

impl Transport for Tee<'_> {
    fn call(&mut self, frame: &str) -> Result<String, String> {
        let tcp_start = Instant::now();
        let response = self.conn.call(frame)?;
        let tcp_ms = tcp_start.elapsed().as_secs_f64() * 1e3;
        let handle_start = Instant::now();
        let local = self.host.handle(frame);
        let handle_ms = handle_start.elapsed().as_secs_f64() * 1e3;
        self.pairs.push(Pair {
            tcp_start,
            tcp_ms,
            handle_start,
            handle_ms,
            same: local == response,
        });
        Ok(response)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e6)
}

pub fn run(
    bin: &Path,
    prepared: Prepared,
    w: &Workload,
    specs: &[SessionSpec],
    seconds: f64,
    seed: u64,
) -> Result<(Tally, Vec<Metric>, String), String> {
    let mut tally = Tally::default();
    let mut spans = Spans {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    // Three passes over a fifth of the untraced run's sessions (the first
    // also runs every request in process) keep the traced run about as
    // long as an untraced one.
    let sessions = ((w.sessions_per_conn(seconds) * w.conns) as f64 / 5.0)
        .ceil()
        .max(2.0) as usize;
    let serial = Workload { conns: 1, ..*w };

    // Set-up layers: load the dataset file, build the host's grid.
    let (mut load_ms, mut build_ms) = (Vec::new(), Vec::new());
    for _ in 0..w.boots.min(5) {
        let start = Instant::now();
        let view = load_view(&prepared.path).map_err(|e| format!("load_view: {e}"))?;
        load_ms.push(spans.record("data.load_view", None, 0, start).1);
        let start = Instant::now();
        let host = SessionHost::new(view, ServeConfig::default());
        build_ms.push(spans.record("index.grid_build", None, 0, start).1);
        drop(host);
    }

    // Pass 1, traced: the real server, each request replayed at once
    // through `SessionHost::handle` on an in-process host fed the same
    // sequence, so the pair is measured under the same machine state.
    let host = SessionHost::new(prepared.view.clone(), ServeConfig::default());
    let (logs, stats, paired) = {
        let (server, conn, _) = Server::boot(bin, &prepared.path)?;
        let dims = check_hello(&conn.hello, w.rows, &mut tally);
        let mut tee = Tee {
            conn,
            host: &host,
            pairs: Vec::new(),
        };
        let mut logs = Vec::new();
        for spec in specs.iter().take(sessions) {
            match run_session(&mut tee, &serial, spec, dims, true, &mut tally) {
                Ok(log) => logs.push(log),
                Err(Stop::Failed) => {}
                Err(Stop::Broken) => break,
            }
        }
        let stats = server_stats(&server, &mut tally)?;
        (logs, stats, tee.pairs)
    };
    drop(host);
    // Pass 2, untraced: a fresh server, round trips only.
    let untraced_rounds: Vec<f64> = {
        let (server, _, _) = Server::boot(bin, &prepared.path)?;
        let driven = drive(&server, &serial, specs, sessions)?;
        tally.merge(driven.tally);
        driven
            .sessions
            .iter()
            .flat_map(|s| s.rounds.iter().map(|r| r.ms))
            .collect()
    };

    let mut layers = Layers::default();
    let mut op_ms: [Vec<f64>; 4] = Default::default();
    let mut traced_rounds = Vec::new();
    let mut net_us = Vec::new();
    let mut sql_us = Vec::new();
    let mut tcp_spans: Vec<(u64, u64)> = Vec::new();
    let exchanges: Vec<&Exchange> = logs.iter().flat_map(|l| &l.exchanges).collect();
    if exchanges.len() != paired.len() {
        tally.violation("a failed operation left the traced pass without its pairs".into());
    }
    for (i, (ex, pair)) in exchanges.iter().zip(&paired).enumerate() {
        let request = i as u64 + 1;
        let tcp_id = spans.push(tcp_name(ex.op), None, request, pair.tcp_start, pair.tcp_ms);
        spans.push(
            serve_name(ex.op),
            Some(tcp_id),
            request,
            pair.handle_start,
            pair.handle_ms,
        );
        tcp_spans.push((tcp_id, request));
        if !pair.same {
            tally.violation(format!(
                "in-process {} response differs from the server's",
                ex.op.name()
            ));
        }
        op_ms[ex.op as usize].push(pair.handle_ms);
        if ex.op != Op::Label {
            continue;
        }
        traced_rounds.push(pair.tcp_ms);
        net_us.push((pair.tcp_ms - pair.handle_ms) * 1e3);
        layers.rounds += 1;
        layers.tcp_ms += pair.tcp_ms;
        // The wire codec on the recorded frames.
        let (req, req_dec) = timed(|| Json::parse(&ex.request));
        let (resp, resp_dec) = timed(|| Json::parse(&ex.response));
        let (Ok(req), Ok(resp)) = (req, resp) else {
            tally.violation("recorded label frame does not parse".into());
            continue;
        };
        let (req_text, req_enc) = timed(|| req.to_string());
        let (resp_text, resp_enc) = timed(|| resp.to_string());
        if req_text != ex.request || resp_text != ex.response {
            tally.violation("a label frame does not re-encode to itself".into());
        }
        layers.decode_us += req_dec + resp_dec;
        layers.encode_us += req_enc + resp_enc;
        layers.server_json_us += req_dec + resp_enc;
        layers.frame_bytes += (ex.request.len() + ex.response.len()) as f64;
    }

    // Pass 3: the replica, with the beside timings.
    let view = Arc::new(prepared.view);
    let mut template = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    template.set_shared_cache(SharedRegionCache::new());
    let tree_params = SessionConfig::default().tree;
    let serial_pool = Pool::serial();
    let mut tcp_iter = tcp_spans.into_iter();
    for log in &logs {
        let spec = &specs[log.index as usize];
        replay(
            &mut ReplayCtx {
                w,
                spec,
                view: &view,
                template: &template,
                tree_params: &tree_params,
                pool: &serial_pool,
                tally: &mut tally,
                spans: &mut spans,
                layers: &mut layers,
                sql_us: &mut sql_us,
            },
            log,
            &mut tcp_iter,
        );
    }

    // Metrics.
    let hits = stats.get("cache_hits").and_then(Json::as_u64).unwrap_or(0) as f64;
    let misses = stats
        .get("cache_misses")
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64;
    let entries = stats
        .get("cache_entries")
        .and_then(Json::as_u64)
        .unwrap_or(0) as f64;
    let l = &layers;
    let tcp_round = l.per_round(l.tcp_ms);
    // The median: a frame's compute varies between the two runs of it
    // far more than the loopback round trip costs.
    let net_us = median(&net_us);
    let parts = [
        ("net.round_overhead", net_us / 1e3),
        (
            "util.json (server side)",
            l.per_round(l.server_json_us) / 1e3,
        ),
        ("index waves (probe + count)", l.per_round(l.wave_us) / 1e3),
        ("index.select", l.per_round(l.select_us) / 1e3),
        (
            "ml.kmeans (model_fit events)",
            l.per_round(l.kmeans_us) / 1e3,
        ),
        ("ml.cart_refit", l.per_round(l.refit_ms)),
        (
            "core.eval.f",
            if w.target_in_create {
                l.per_round(l.eval_ms)
            } else {
                0.0
            },
        ),
    ];
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let untraced_p50 = median(&untraced_rounds);
    let metrics = vec![
        metric("data.load_view_ms", median(&load_ms), "ms"),
        metric("index.grid_build_ms", median(&build_ms), "ms"),
        metric("index.select_ms", l.per_round(l.select_us) / 1e3, "ms"),
        metric(
            "index.select_scan_per_sample",
            l.returned as f64 / l.new_samples.max(1) as f64,
            "ids/sample",
        ),
        metric(
            "index.probe_us_per_query",
            l.miss_wave_us / l.wave_misses.max(1) as f64,
            "us",
        ),
        metric(
            "index.tuples_examined_per_round",
            l.examined as f64 / l.iterations.max(1) as f64,
            "count",
        ),
        metric(
            "index.cache_hit_rate",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        metric("index.cache_entries", entries, "count"),
        metric("index.cached_row_ids", l.cached_row_ids, "count"),
        metric("ml.cart_refit_ms", l.per_round(l.refit_ms), "ms"),
        metric(
            "ml.cart_rebuild_share",
            l.rebuilds as f64 / l.refits.max(1) as f64,
            "ratio",
        ),
        metric("core.eval.f_ms", l.eval_ms / l.evals.max(1) as f64, "ms"),
        metric("core.session.complete_ms", l.per_round(l.complete_ms), "ms"),
        metric("core.session.propose_ms", l.per_round(l.propose_ms), "ms"),
        metric(
            "core.serve.create_ms",
            mean(&op_ms[Op::Create as usize]),
            "ms",
        ),
        metric(
            "core.serve.label_ms",
            mean(&op_ms[Op::Label as usize]),
            "ms",
        ),
        metric(
            "core.serve.result_ms",
            mean(&op_ms[Op::Result as usize]),
            "ms",
        ),
        metric(
            "core.serve.close_ms",
            mean(&op_ms[Op::Close as usize]),
            "ms",
        ),
        metric("util.json.decode_us", l.per_round(l.decode_us), "us"),
        metric("util.json.encode_us", l.per_round(l.encode_us), "us"),
        metric("util.json.frame_bytes", l.per_round(l.frame_bytes), "bytes"),
        metric("net.round_overhead_us", net_us, "us"),
        metric("query.sql_render_us", mean(&sql_us), "us"),
        metric("unattributed_ms", tcp_round - attributed, "ms"),
        metric(
            "trace_overhead_pct",
            100.0 * (median(&traced_rounds) - untraced_p50) / untraced_p50,
            "%",
        ),
    ];

    let mut table = format!(
        "{} traced run: {} sessions, {} label rounds on one connection\n",
        w.name, sessions, l.rounds
    );
    table.push_str(&format!(
        "{:<32} {:>14}  {}\n",
        "layer metric", "value", "unit"
    ));
    for m in &metrics {
        table.push_str(&format!("{:<32} {:>14.4}  {}\n", m.name, m.value, m.unit));
    }
    table.push_str(&format!(
        "\nlabel round over TCP, mean {tcp_round:.4} ms, split by layer:\n"
    ));
    for (name, v) in parts {
        table.push_str(&format!("  {name:<30} {v:>10.4} ms\n"));
    }
    table.push_str(&format!(
        "  {:<30} {:>10.4} ms\n",
        "unattributed",
        tcp_round - attributed
    ));

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(format!("spans-{}-{seed}.jsonl", w.name));
    spans.write(&path)?;
    table.push_str(&format!(
        "{} spans written to {}",
        spans.spans.len(),
        path.display()
    ));
    Ok((tally, metrics, table))
}

fn tcp_name(op: Op) -> &'static str {
    match op {
        Op::Create => "tcp.create",
        Op::Label => "tcp.label",
        Op::Result => "tcp.result",
        Op::Close => "tcp.close",
    }
}

fn serve_name(op: Op) -> &'static str {
    match op {
        Op::Create => "core.serve.create",
        Op::Label => "core.serve.label",
        Op::Result => "core.serve.result",
        Op::Close => "core.serve.close",
    }
}

struct ReplayCtx<'a> {
    w: &'a Workload,
    spec: &'a SessionSpec,
    view: &'a Arc<NumericView>,
    template: &'a ExtractionEngine,
    tree_params: &'a aide_ml::TreeParams,
    pool: &'a Pool,
    tally: &'a mut Tally,
    spans: &'a mut Spans,
    layers: &'a mut Layers,
    sql_us: &'a mut Vec<f64>,
}

/// Replays one recorded session on a replica and checks it against the
/// server's responses. `tcp_spans` yields the TCP span id and request id
/// of each recorded exchange, in order, so replica spans hang under the
/// request they serve.
fn replay(
    c: &mut ReplayCtx<'_>,
    log: &SessionLog,
    tcp_spans: &mut impl Iterator<Item = (u64, u64)>,
) {
    let tracer = Tracer::new();
    let config = SessionConfig {
        samples_per_iteration: c.w.batch,
        threads: 1,
        tracer: tracer.clone(),
        ..SessionConfig::default()
    };
    let truth = c.w.target_in_create.then(|| c.spec.target.clone());
    let mut session = ExplorationSession::with_oracle(
        config,
        c.template.fork_session(),
        Arc::clone(c.view),
        Box::new(CallbackOracle::new(|_: &Sample| false)),
        truth,
        Xoshiro256pp::seed_from_u64(c.spec.seed),
    );
    let dims = c.view.dims();
    let mut mirror: Option<IncrementalTree> = None;
    let mut pending: Vec<Sample> = Vec::new();
    for ex in &log.exchanges {
        let (parent, request) = match tcp_spans.next() {
            Some((span, request)) => (Some(span), request),
            None => (None, 0),
        };
        let response = Json::parse(&ex.response).unwrap_or(Json::Null);
        match ex.op {
            Op::Create => {
                let start = Instant::now();
                pending = session.propose_iteration();
                c.spans
                    .record("core.session.propose", parent, request, start);
                tracer.drain();
                if !proposals_match(&pending, &response) {
                    c.tally.violation(format!(
                        "replica of session {} proposes differently at create",
                        log.index
                    ));
                }
            }
            Op::Label => {
                let labels: Vec<bool> = pending
                    .iter()
                    .map(|s| c.spec.target.contains(&s.point))
                    .collect();
                let start = Instant::now();
                let report = session.complete_iteration(&labels).clone();
                let (complete_id, complete_ms) =
                    c.spans
                        .record("core.session.complete", parent, request, start);
                c.layers.complete_ms += complete_ms;
                c.layers.iterations += 1;
                c.layers.examined += report.extraction.tuples_examined;
                c.layers.returned += report.extraction.tuples_returned;
                c.layers.new_samples += report.new_samples as u64;
                let server_f = response.get("f").and_then(Json::as_f64);
                if c.w.target_in_create
                    && server_f.map(f64::to_bits) != Some(report.f_measure.to_bits())
                {
                    c.tally.violation(format!(
                        "session {} round {}: replica f {} differs from the server's {:?}",
                        log.index, report.iteration, report.f_measure, server_f
                    ));
                }
                // Beside the session: the same CART refit on the same labels.
                let labeled = session.labeled();
                if labeled.has_both_classes() {
                    let start = Instant::now();
                    let rebuilt = match mirror.as_mut() {
                        None => {
                            mirror = Some(IncrementalTree::fit(
                                dims,
                                labeled.data(),
                                labeled.labels(),
                                c.tree_params,
                            ));
                            true
                        }
                        Some(m) => {
                            let fitted = m.samples();
                            m.refit(
                                &labeled.data()[fitted * dims..],
                                &labeled.labels()[fitted..],
                            )
                            .rebuilt
                        }
                    };
                    let (_, ms) =
                        c.spans
                            .record("ml.cart_refit", Some(complete_id), request, start);
                    c.layers.refit_ms += ms;
                    c.layers.refits += 1;
                    c.layers.rebuilds += rebuilt as usize;
                    let same = mirror.as_ref().map(IncrementalTree::tree) == session.tree();
                    if !same || report.model_rebuilt != Some(rebuilt) {
                        c.tally.violation(format!(
                            "session {}: beside refit disagrees with the session's",
                            log.index
                        ));
                    }
                }
                // Beside the session: the full-view F evaluation, on one
                // thread as the session runs it. Without a target in
                // `create` the server skips it; the analyst's target then
                // prices the layer on this data, on every tenth round and
                // outside the attribution.
                if c.w.target_in_create || report.iteration.is_multiple_of(10) {
                    let start = Instant::now();
                    let m = evaluate_model_with(
                        session.tree(),
                        c.view.as_ref(),
                        &c.spec.target,
                        c.pool,
                    );
                    let (_, ms) = c
                        .spans
                        .record("core.eval.f", Some(complete_id), request, start);
                    c.layers.eval_ms += ms;
                    c.layers.evals += 1;
                    if c.w.target_in_create && m.f_measure().to_bits() != report.f_measure.to_bits()
                    {
                        c.tally.violation(format!(
                            "session {}: beside evaluation disagrees",
                            log.index
                        ));
                    }
                }
                let start = Instant::now();
                pending = session.propose_iteration();
                let (_, ms) = c
                    .spans
                    .record("core.session.propose", parent, request, start);
                c.layers.propose_ms += ms;
                c.layers.absorb(&tracer.drain());
                if !proposals_match(&pending, &response) {
                    c.tally.violation(format!(
                        "replica of session {} proposes differently after round {}",
                        log.index, report.iteration
                    ));
                }
            }
            Op::Result => {
                let start = Instant::now();
                let sql = session.predicted_selection("data").to_sql();
                let (_, ms) = c.spans.record("query.sql_render", parent, request, start);
                c.sql_us.push(ms * 1e3);
                if response.get("sql").and_then(Json::as_str) != Some(sql.as_str()) {
                    c.tally.violation(format!(
                        "session {}: replica SQL differs from the server's",
                        log.index
                    ));
                }
            }
            Op::Close => {}
        }
    }
}
