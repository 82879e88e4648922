//! The exploration server: many concurrent sessions over one dataset.
//!
//! The paper frames AIDE as a *service* in front of a database — several
//! analysts steer their own explorations over the same data at once. This
//! module is that deployment form: a [`SessionHost`] owns one immutable
//! [`NumericView`] plus a single grid index and a single
//! [`SharedRegionCache`], and every client session runs over a
//! [`fork`](aide_index::ExtractionEngine::fork_session) of that engine.
//! Because the cache is never invalidated (see
//! [`SharedRegionCache`]'s contract), sharing it across sessions is safe:
//! the first analyst to probe a region pays the extraction cost, every
//! later analyst hits. Sharing changes *cost accounting only* — samples,
//! labels and each session's RNG stream are bit-identical to a standalone
//! run with the same seed (pinned by `tests/server.rs`).
//!
//! The wire protocol (`aide-serve/1`, normative spec in `PROTOCOL.md`) is
//! newline-delimited JSON over TCP: one request object per line, one
//! response object per line, no external dependencies on either side. The
//! request loop mirrors the paper's iteration: `create` proposes the
//! first sample batch, each `label` folds verdicts in and proposes the
//! next batch, `result` reads the predicted query. A session's review
//! gap — the analyst thinking — is a parked
//! [`propose_iteration`](crate::ExplorationSession::propose_iteration)
//! batch, so user think time never counts against iteration durations.
//!
//! [`SessionHost::handle`] is transport-agnostic (a `&str` in, a `String`
//! out) and total: malformed input yields typed error frames, never a
//! panic. [`serve_listener`] adds the TCP framing (bounded lines,
//! hello frame on connect, thread per connection). In-process use needs
//! no socket at all:
//!
//! ```
//! use aide_core::serve::{ServeConfig, SessionHost};
//! use aide_data::view::{Domain, SpaceMapper};
//! use aide_data::NumericView;
//!
//! let mapper = SpaceMapper::new(
//!     vec!["x".into(), "y".into()],
//!     vec![Domain::new(0.0, 100.0), Domain::new(0.0, 100.0)],
//! );
//! let view = NumericView::new(mapper, vec![10.0, 20.0, 60.0, 80.0], vec![0, 1]);
//! let host = SessionHost::new(view, ServeConfig::default());
//!
//! let created = host.handle(r#"{"v":1,"op":"create","seed":42,"batch":2}"#);
//! assert!(created.contains("\"proposals\""));
//! let stats = host.handle(r#"{"v":1,"op":"stats"}"#);
//! assert!(stats.contains("aide-serve/1"));
//! ```

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use aide_data::NumericView;
use aide_index::{ExtractionEngine, IndexKind, Sample, SharedRegionCache};
use aide_util::geom::Rect;
use aide_util::json::{obj, Json};
use aide_util::rng::Xoshiro256pp;
use aide_util::trace::Tracer;

use crate::config::SessionConfig;
use crate::oracle::CallbackOracle;
use crate::session::ExplorationSession;
use crate::target::TargetQuery;

/// Protocol identifier, sent in the hello frame and `stats` responses.
/// Bump the suffix on any incompatible change (see `PROTOCOL.md`).
pub const PROTOCOL: &str = "aide-serve/1";

/// Hard cap on one request line, in bytes. A longer line is answered
/// with a `bad_frame` error and the connection is closed.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on a session's `batch` (samples proposed per iteration).
pub const MAX_BATCH: usize = 1_000;

/// Panic message of a request that locks a session slot poisoned by an
/// earlier panicking request; [`SessionHost::handle`] turns it into an
/// `internal` reply.
const POISONED: &str = "session slot poisoned by a panicking request";

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Default samples proposed per iteration when `create` does not set
    /// `batch` (the paper's setup uses 20).
    pub batch: usize,
    /// Sessions untouched for longer than this are evicted (their trace
    /// is finalized first). Eviction runs on each `create`.
    pub idle_timeout: Duration,
    /// Hard cap on live sessions; `create` beyond it is refused with a
    /// `session_limit` error.
    pub max_sessions: usize,
    /// When set, every session records an `aide-trace/1` stream, written
    /// to `<trace_dir>/session-<id>.jsonl` on `close` or eviction.
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            batch: 20,
            idle_timeout: Duration::from_secs(600),
            max_sessions: 64,
            trace_dir: None,
        }
    }
}

/// One live exploration plus its bookkeeping.
struct SessionSlot {
    session: ExplorationSession,
    /// Handle on the session's trace stream (disabled when the host has
    /// no trace directory), serialized at finalization.
    tracer: Tracer,
    last_touch: Instant,
}

/// The shared state behind a running `aide serve`: the dataset, the
/// template engine every session forks, the cross-session region cache
/// and the session table.
///
/// `handle` is safe to call from any number of threads; sessions lock
/// individually, so label rounds of different sessions run concurrently.
pub struct SessionHost {
    view: Arc<NumericView>,
    /// The engine sessions fork: grid index built once, shared cache
    /// installed. Behind a mutex only because forking borrows it.
    template: Mutex<ExtractionEngine>,
    cache: SharedRegionCache,
    config: ServeConfig,
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionSlot>>>>,
    next_id: AtomicU64,
    created: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for SessionHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHost")
            .field("rows", &self.view.len())
            .field("dims", &self.view.dims())
            .finish()
    }
}

impl SessionHost {
    /// Builds a host over `view`: one grid index, one shared cache, an
    /// empty session table.
    pub fn new(view: NumericView, config: ServeConfig) -> Self {
        let view = Arc::new(view);
        let mut template = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        let cache = SharedRegionCache::new();
        template.set_shared_cache(cache.clone());
        Self {
            view,
            template: Mutex::new(template),
            cache,
            config,
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The hello frame written once per connection before any request:
    /// protocol id plus the dataset's shape, so a client can validate
    /// target dimensionalities before `create`.
    pub fn hello(&self) -> String {
        let attrs = self
            .view
            .mapper()
            .attrs()
            .iter()
            .map(|a| Json::Str(a.clone()))
            .collect();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("hello", Json::Str(PROTOCOL.to_string())),
            ("rows", Json::Num(self.view.len() as f64)),
            ("dims", Json::Num(self.view.dims() as f64)),
            ("attrs", Json::Arr(attrs)),
        ])
        .to_string()
    }

    /// Handles one request frame and returns one response frame (neither
    /// includes the trailing newline). Total: every malformed input maps
    /// to a typed `{"ok":false,"error":...}` frame — this function is the
    /// protocol fuzz surface and must never panic. Should a request panic
    /// anyway, the panic is caught here: the reply is an `internal` error
    /// and every session the panic left poisoned is dropped, so the host
    /// keeps serving the others.
    pub fn handle(&self, frame: &str) -> String {
        self.isolated(|| self.dispatch(frame))
    }

    /// Runs one request body, turning a panic into an `internal` error
    /// frame. A slot whose lock was held by the panicking request is
    /// poisoned: its session may be half-updated, so it is removed
    /// without being finalized. A request that fetched such a slot just
    /// before panics on its lock ([`POISONED`]) and is answered the same
    /// way. The session table and the template are only held for map
    /// and fork operations, which leave them consistent, so their locks
    /// shrug poisoning off.
    fn isolated(&self, request: impl FnOnce() -> String) -> String {
        match panic::catch_unwind(AssertUnwindSafe(request)) {
            Ok(reply) => reply,
            Err(_) => {
                let mut sessions = self.lock_sessions();
                let before = sessions.len();
                sessions.retain(|_, slot| !slot.is_poisoned());
                let dropped = before - sessions.len();
                err(
                    "internal",
                    &format!("the request failed inside the server; {dropped} session(s) dropped"),
                )
            }
        }
    }

    fn dispatch(&self, frame: &str) -> String {
        let req = match Json::parse(frame) {
            Ok(j) => j,
            Err(e) => return err("bad_json", &format!("{} at byte {}", e.message, e.offset)),
        };
        let Some(v) = req.get("v").and_then(Json::as_u64) else {
            return err("bad_version", "missing protocol version field `v`");
        };
        if v != 1 {
            return err("bad_version", &format!("unsupported protocol version {v}"));
        }
        let Some(op) = req.get("op").and_then(Json::as_str) else {
            return err("bad_request", "missing operation field `op`");
        };
        match op {
            "create" => self.op_create(&req),
            "label" => self.op_label(&req),
            "result" => self.op_result(&req),
            "close" => self.op_close(&req),
            "stats" => self.op_stats(),
            other => err("unknown_op", &format!("unknown operation `{other}`")),
        }
    }

    fn op_create(&self, req: &Json) -> String {
        self.evict_idle();
        let Some(seed) = req.get("seed").and_then(Json::as_u64) else {
            return err("bad_request", "`create` needs an unsigned integer `seed`");
        };
        let batch = match req.get("batch") {
            None => self.config.batch,
            Some(b) => match b.as_u64() {
                Some(n) if (1..=MAX_BATCH as u64).contains(&n) => n as usize,
                _ => {
                    return err(
                        "bad_request",
                        &format!("`batch` must be an integer in 1..={MAX_BATCH}"),
                    )
                }
            },
        };
        let ground_truth = match req.get("target") {
            None => None,
            Some(t) => match self.parse_target(t) {
                Ok(target) => Some(target),
                Err(msg) => return err("bad_request", &msg),
            },
        };
        // Fast refusal before any session work. Advisory only: concurrent
        // creates can all pass it, so the insert below re-checks.
        let live = self.lock_sessions().len();
        if let Some(refused) = self.refuse_over_limit(live) {
            return refused;
        }
        let tracer = if self.config.trace_dir.is_some() {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let config = SessionConfig {
            samples_per_iteration: batch,
            threads: 1,
            tracer: tracer.clone(),
            ..SessionConfig::default()
        };
        // The oracle is never consulted: a server session is driven
        // exclusively through propose/complete, labels come off the wire.
        let oracle = CallbackOracle::new(|_: &Sample| false);
        let engine = self
            .template
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .fork_session();
        let mut session = ExplorationSession::with_oracle(
            config,
            engine,
            Arc::clone(&self.view),
            Box::new(oracle),
            ground_truth,
            Xoshiro256pp::seed_from_u64(seed),
        );
        let proposals = session.propose_iteration();
        // Check the cap and insert in one critical section, so racing
        // creates cannot overshoot `max_sessions`. The session was built
        // outside the lock: holding it across fork and propose would
        // serialize every open.
        let id = {
            let mut sessions = self.lock_sessions();
            if let Some(refused) = self.refuse_over_limit(sessions.len()) {
                return refused;
            }
            let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
            sessions.insert(
                id,
                Arc::new(Mutex::new(SessionSlot {
                    session,
                    tracer,
                    last_touch: Instant::now(),
                })),
            );
            id
        };
        self.created.fetch_add(1, Ordering::Relaxed);
        obj(vec![
            ("ok", Json::Bool(true)),
            ("session", Json::Num(id as f64)),
            ("proposals", proposals_json(&proposals)),
        ])
        .to_string()
    }

    fn op_label(&self, req: &Json) -> String {
        let Some(id) = req.get("session").and_then(Json::as_u64) else {
            return err("bad_request", "`label` needs an unsigned integer `session`");
        };
        let Some(labels_json) = req.get("labels").and_then(Json::as_array) else {
            return err("bad_request", "`label` needs a `labels` array");
        };
        let mut labels = Vec::with_capacity(labels_json.len());
        for l in labels_json {
            match l.as_bool() {
                Some(b) => labels.push(b),
                None => return err("bad_labels", "`labels` entries must be booleans"),
            }
        }
        let Some(slot) = self.slot(id) else {
            return err("no_session", &format!("no session {id}"));
        };
        let mut slot = slot.lock().expect(POISONED);
        let Some(expected) = slot.session.pending_len() else {
            return err("bad_request", "session has no pending proposals");
        };
        if labels.len() != expected {
            return err(
                "bad_labels",
                &format!("expected {expected} labels, got {}", labels.len()),
            );
        }
        let report = slot.session.complete_iteration(&labels);
        let iter = report.iteration;
        let new_samples = report.new_samples;
        let total_labeled = report.total_labeled;
        let relevant_labeled = report.relevant_labeled;
        let f = report.f_measure;
        let proposals = slot.session.propose_iteration();
        slot.last_touch = Instant::now();
        let mut fields = vec![
            ("ok", Json::Bool(true)),
            ("session", Json::Num(id as f64)),
            ("iter", Json::Num(iter as f64)),
            ("new_samples", Json::Num(new_samples as f64)),
            ("total_labeled", Json::Num(total_labeled as f64)),
            ("relevant_labeled", Json::Num(relevant_labeled as f64)),
        ];
        if slot.session.ground_truth().is_some() {
            fields.push(("f", Json::Num(f)));
        }
        fields.push(("done", Json::Bool(proposals.is_empty())));
        fields.push(("proposals", proposals_json(&proposals)));
        obj(fields).to_string()
    }

    fn op_result(&self, req: &Json) -> String {
        let Some(id) = req.get("session").and_then(Json::as_u64) else {
            return err("bad_request", "`result` needs an unsigned integer `session`");
        };
        let Some(slot) = self.slot(id) else {
            return err("no_session", &format!("no session {id}"));
        };
        let mut slot = slot.lock().expect(POISONED);
        slot.last_touch = Instant::now();
        let session = &slot.session;
        let sql = session.predicted_selection("data").to_sql();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("session", Json::Num(id as f64)),
            ("iterations", Json::Num(session.history().len() as f64)),
            ("total_labeled", Json::Num(session.labeled().len() as f64)),
            (
                "relevant",
                Json::Num(session.labeled().relevant_count() as f64),
            ),
            ("regions", Json::Num(session.relevant_regions().len() as f64)),
            ("final_f", Json::Num(session.result().final_f)),
            ("sql", Json::Str(sql)),
        ])
        .to_string()
    }

    fn op_close(&self, req: &Json) -> String {
        let Some(id) = req.get("session").and_then(Json::as_u64) else {
            return err("bad_request", "`close` needs an unsigned integer `session`");
        };
        let Some(slot) = self.lock_sessions().remove(&id) else {
            return err("no_session", &format!("no session {id}"));
        };
        let trace = self.finalize(id, &slot);
        let mut fields = vec![("ok", Json::Bool(true)), ("session", Json::Num(id as f64))];
        if let Some(path) = trace {
            fields.push(("trace", Json::Str(path.display().to_string())));
        }
        obj(fields).to_string()
    }

    fn op_stats(&self) -> String {
        let stats = self.cache.stats();
        obj(vec![
            ("ok", Json::Bool(true)),
            ("proto", Json::Str(PROTOCOL.to_string())),
            (
                "sessions_active",
                Json::Num(self.lock_sessions().len() as f64),
            ),
            (
                "sessions_created",
                Json::Num(self.created.load(Ordering::Relaxed) as f64),
            ),
            (
                "sessions_evicted",
                Json::Num(self.evicted.load(Ordering::Relaxed) as f64),
            ),
            ("cache_entries", Json::Num(self.cache.len() as f64)),
            ("cache_bytes", Json::Num(self.cache.bytes() as f64)),
            ("cache_hits", Json::Num(stats.hits as f64)),
            ("cache_misses", Json::Num(stats.misses as f64)),
            ("rows", Json::Num(self.view.len() as f64)),
            ("dims", Json::Num(self.view.dims() as f64)),
        ])
        .to_string()
    }

    /// Parses `create`'s optional `target`: an array of
    /// `{"lo": [...], "hi": [...]}` rectangles in normalized `[0, 100]`
    /// coordinates, one entry per relevant area.
    fn parse_target(&self, t: &Json) -> Result<TargetQuery, String> {
        let dims = self.view.dims();
        let Some(entries) = t.as_array() else {
            return Err("`target` must be an array of {lo, hi} rectangles".into());
        };
        if entries.is_empty() {
            return Err("`target` needs at least one rectangle".into());
        }
        let mut areas = Vec::with_capacity(entries.len());
        for entry in entries {
            let bound = |key: &str| -> Result<Vec<f64>, String> {
                let Some(arr) = entry.get(key).and_then(Json::as_array) else {
                    return Err(format!("each target rectangle needs a `{key}` array"));
                };
                let vals: Option<Vec<f64>> = arr.iter().map(Json::as_f64).collect();
                let Some(vals) = vals else {
                    return Err(format!("`{key}` entries must be numbers"));
                };
                if vals.len() != dims {
                    return Err(format!(
                        "`{key}` has {} coordinates, the dataset has {dims} dimensions",
                        vals.len()
                    ));
                }
                if !vals.iter().all(|v| v.is_finite()) {
                    return Err(format!("`{key}` coordinates must be finite"));
                }
                Ok(vals)
            };
            let lo = bound("lo")?;
            let hi = bound("hi")?;
            if lo.iter().zip(&hi).any(|(l, h)| l > h) {
                return Err("target rectangle has lo > hi".into());
            }
            areas.push(Rect::new(lo, hi));
        }
        Ok(TargetQuery::new(areas))
    }

    /// The `session_limit` error frame when `live` sessions fill the cap.
    fn refuse_over_limit(&self, live: usize) -> Option<String> {
        (live >= self.config.max_sessions)
            .then(|| err("session_limit", &format!("{live} sessions already live")))
    }

    fn lock_sessions(&self) -> MutexGuard<'_, HashMap<u64, Arc<Mutex<SessionSlot>>>> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn slot(&self, id: u64) -> Option<Arc<Mutex<SessionSlot>>> {
        self.lock_sessions().get(&id).cloned()
    }

    /// Evicts sessions idle past the timeout. A slot whose lock is held
    /// is mid-request, hence not idle; `try_lock` skips it.
    fn evict_idle(&self) {
        let stale: Vec<(u64, Arc<Mutex<SessionSlot>>)> = {
            let sessions = self.lock_sessions();
            sessions
                .iter()
                .filter(|(_, slot)| {
                    slot.try_lock()
                        .map(|s| s.last_touch.elapsed() > self.config.idle_timeout)
                        .unwrap_or(false)
                })
                .map(|(id, slot)| (*id, Arc::clone(slot)))
                .collect()
        };
        for (id, slot) in stale {
            if self.lock_sessions().remove(&id).is_some() {
                self.finalize(id, &slot);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Ends a removed session cleanly: the pending batch (if any) is
    /// abandoned so the trace's iteration span closes, `session_end` is
    /// emitted, and the stream is written to the trace directory.
    fn finalize(&self, id: u64, slot: &Arc<Mutex<SessionSlot>>) -> Option<PathBuf> {
        let mut slot = slot.lock().expect(POISONED);
        slot.session.abandon_iteration();
        slot.session.finish_trace();
        let dir = self.config.trace_dir.as_ref()?;
        let path = dir.join(format!("session-{id}.jsonl"));
        let write = || -> std::io::Result<()> {
            let mut w = BufWriter::new(std::fs::File::create(&path)?);
            slot.tracer.write_jsonl(&mut w, false)?;
            w.flush()
        };
        match write() {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("warning: cannot write {}: {e}", path.display());
                None
            }
        }
    }
}

/// Serializes proposals for the wire: the source row id (what the client
/// shows its user) plus the normalized coordinates, bit-exact — the
/// writer emits shortest-roundtrip floats and [`Json::parse`] reads them
/// back to the identical bits, so client-side membership tests match the
/// server's geometry exactly.
fn proposals_json(samples: &[Sample]) -> Json {
    Json::Arr(
        samples
            .iter()
            .map(|s| {
                obj(vec![
                    ("row", Json::Num(s.row_id as f64)),
                    (
                        "point",
                        Json::Arr(s.point.iter().map(|&c| Json::Num(c)).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

/// One typed error frame.
fn err(code: &str, message: &str) -> String {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(code.to_string())),
        ("message", Json::Str(message.to_string())),
    ])
    .to_string()
}

/// What one bounded line read produced.
enum Frame {
    /// Clean end of stream (possibly discarding a final unterminated
    /// line — a request is only a request once its newline arrives).
    Eof,
    /// The line exceeded [`MAX_FRAME`] bytes.
    Oversized,
    /// The line was not valid UTF-8.
    NotUtf8,
    /// One complete request line (newline stripped).
    Line(String),
}

/// Reads one `\n`-terminated line, enforcing the frame cap *while
/// reading* so an attacker cannot balloon memory with a newline-free
/// stream.
fn read_frame<R: BufRead>(reader: &mut R) -> std::io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(Frame::Eof);
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&chunk[..pos]);
            reader.consume(pos + 1);
            if buf.len() > MAX_FRAME {
                return Ok(Frame::Oversized);
            }
            return Ok(match String::from_utf8(buf) {
                Ok(line) => Frame::Line(line),
                Err(_) => Frame::NotUtf8,
            });
        }
        buf.extend_from_slice(chunk);
        let len = chunk.len();
        reader.consume(len);
        if buf.len() > MAX_FRAME {
            return Ok(Frame::Oversized);
        }
    }
}

/// Serves one accepted connection: hello frame, then a request/response
/// loop until EOF or a framing violation.
pub fn serve_connection(stream: TcpStream, host: &SessionHost) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    writer.write_all(host.hello().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    loop {
        let response = match read_frame(&mut reader)? {
            Frame::Eof => return Ok(()),
            Frame::Oversized => {
                let e = err("bad_frame", &format!("line exceeds {MAX_FRAME} bytes"));
                return close_after(&e, reader, writer);
            }
            Frame::NotUtf8 => {
                return close_after(&err("bad_frame", "line is not valid UTF-8"), reader, writer);
            }
            Frame::Line(line) => host.handle(&line),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// How long a connection closed for a framing violation keeps reading
/// what the client still sends.
const CLOSE_LINGER: Duration = Duration::from_secs(2);

/// Sends the error frame `e` and closes the connection gracefully. The
/// rest of the offending line may still be unread, and a socket closed
/// over unread input sends a reset that can overtake the error frame at
/// the client. So the write side is shut first (the client reads the
/// frame, then end of stream), and at most [`MAX_FRAME`] more bytes are
/// read and dropped until the client closes or [`CLOSE_LINGER`] passes.
fn close_after(
    e: &str,
    mut reader: BufReader<TcpStream>,
    mut writer: BufWriter<TcpStream>,
) -> std::io::Result<()> {
    writer.write_all(e.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    writer.get_ref().shutdown(Shutdown::Write)?;
    let deadline = Instant::now() + CLOSE_LINGER;
    let mut dropped = 0;
    while dropped < MAX_FRAME {
        let wait = deadline.saturating_duration_since(Instant::now());
        if wait.is_zero() {
            break;
        }
        reader.get_ref().set_read_timeout(Some(wait))?;
        match reader.fill_buf() {
            Ok([]) | Err(_) => break,
            Ok(chunk) => {
                let n = chunk.len();
                reader.consume(n);
                dropped += n;
            }
        }
    }
    Ok(())
}

/// Pause after a failed `accept` before the listener is polled again.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(50);

/// Accept loop: one thread per connection, all sharing `host`. Never
/// returns — kill the process to stop it. A failed `accept` (file
/// descriptors exhausted, a connection aborted before it was accepted)
/// is reported to stderr and retried after [`ACCEPT_RETRY_PAUSE`], so a
/// transient error cannot stop the server.
pub fn serve_listener(listener: TcpListener, host: Arc<SessionHost>) -> ! {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                eprintln!("accept failed: {e}; retrying");
                std::thread::sleep(ACCEPT_RETRY_PAUSE);
                continue;
            }
        };
        let host = Arc::clone(&host);
        std::thread::spawn(move || {
            // A dropped connection mid-write is the client's problem;
            // its sessions stay live until closed or evicted.
            let _ = serve_connection(stream, &host);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_data::view::{Domain, SpaceMapper};
    use aide_util::rng::Rng;

    fn uniform_view(n: usize, dims: usize, seed: u64) -> NumericView {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mapper = SpaceMapper::new(
            (0..dims).map(|d| format!("a{d}")).collect(),
            vec![Domain::new(0.0, 100.0); dims],
        );
        let data: Vec<f64> = (0..n * dims).map(|_| rng.uniform(0.0, 100.0)).collect();
        NumericView::new(mapper, data, (0..n as u32).collect())
    }

    fn host() -> SessionHost {
        SessionHost::new(uniform_view(10_000, 2, 1), ServeConfig::default())
    }

    fn parse(frame: &str) -> Json {
        Json::parse(frame).expect("response frames are valid JSON")
    }

    fn error_code(frame: &str) -> String {
        let j = parse(frame);
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false));
        j.get("error").and_then(Json::as_str).unwrap().to_string()
    }

    #[test]
    fn accept_errors_do_not_stop_the_listener() {
        // A non-blocking listener with no pending connection fails its
        // first `accept` with `WouldBlock`; the loop must keep going and
        // serve the client that connects afterwards.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let h = Arc::new(host());
        std::thread::spawn(move || serve_listener(listener, h));
        std::thread::sleep(ACCEPT_RETRY_PAUSE * 2);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut hello = String::new();
        BufReader::new(stream).read_line(&mut hello).unwrap();
        let j = parse(hello.trim_end());
        assert_eq!(j.get("hello").and_then(Json::as_str), Some(PROTOCOL));
    }

    #[test]
    fn a_panicking_request_drops_its_session_and_the_host_keeps_answering() {
        let h = host();
        let create = |seed: u64| {
            let reply = parse(&h.handle(&format!(
                r#"{{"v":1,"op":"create","seed":{seed},"batch":3}}"#
            )));
            reply.get("session").and_then(Json::as_u64).unwrap()
        };
        let label = |id: u64| {
            h.handle(&format!(
                r#"{{"v":1,"op":"label","session":{id},"labels":[false,false,false]}}"#
            ))
        };
        let (doomed, survivor) = (create(1), create(2));
        // A request that panics while it holds a session's slot, as a bug
        // inside a label round would.
        let reply = h.isolated(|| {
            let slot = h.slot(doomed).unwrap();
            let _held = slot.lock().unwrap();
            panic!("injected fault");
        });
        assert_eq!(error_code(&reply), "internal");
        assert_eq!(error_code(&label(doomed)), "no_session");
        // A request that meets a slot poisoned elsewhere (here on another
        // thread) is answered `internal`, and the session is dropped.
        let straggler = create(3);
        let slot = h.slot(straggler).unwrap();
        let _ = std::thread::spawn(move || {
            let _held = slot.lock().unwrap();
            panic!("injected fault");
        })
        .join();
        assert_eq!(error_code(&label(straggler)), "internal");
        assert_eq!(error_code(&label(straggler)), "no_session");
        // The other session, new sessions and stats are unaffected.
        let reply = parse(&label(survivor));
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(create(4), straggler + 1);
        let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
        assert_eq!(stats.get("sessions_active").and_then(Json::as_u64), Some(2));
        assert_eq!(error_code(&h.handle("{not json")), "bad_json");
    }

    #[test]
    fn hello_reports_the_dataset_shape() {
        let h = host();
        let j = parse(&h.hello());
        assert_eq!(j.get("hello").and_then(Json::as_str), Some(PROTOCOL));
        assert_eq!(j.get("rows").and_then(Json::as_u64), Some(10_000));
        assert_eq!(j.get("dims").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("attrs").and_then(Json::as_array).unwrap().len(), 2);
    }

    #[test]
    fn create_label_result_loop_works() {
        let h = host();
        let created = parse(&h.handle(
            r#"{"v":1,"op":"create","seed":7,"batch":10,"target":[{"lo":[40,55],"hi":[48,63]}]}"#,
        ));
        assert_eq!(created.get("ok").and_then(Json::as_bool), Some(true));
        let id = created.get("session").and_then(Json::as_u64).unwrap();
        let mut proposals = created.get("proposals").and_then(Json::as_array).unwrap().to_vec();
        for _ in 0..5 {
            let labels: Vec<String> = proposals
                .iter()
                .map(|p| {
                    let point: Vec<f64> = p
                        .get("point")
                        .and_then(Json::as_array)
                        .unwrap()
                        .iter()
                        .map(|c| c.as_f64().unwrap())
                        .collect();
                    let relevant = (40.0..=48.0).contains(&point[0])
                        && (55.0..=63.0).contains(&point[1]);
                    relevant.to_string()
                })
                .collect();
            let reply = parse(&h.handle(&format!(
                r#"{{"v":1,"op":"label","session":{id},"labels":[{}]}}"#,
                labels.join(",")
            )));
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
            assert!(reply.get("f").and_then(Json::as_f64).is_some());
            proposals = reply.get("proposals").and_then(Json::as_array).unwrap().to_vec();
        }
        let result = parse(&h.handle(&format!(r#"{{"v":1,"op":"result","session":{id}}}"#)));
        assert_eq!(result.get("ok").and_then(Json::as_bool), Some(true));
        assert!(result.get("total_labeled").and_then(Json::as_u64).unwrap() > 0);
        assert!(result
            .get("sql")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("SELECT"));
        let closed = parse(&h.handle(&format!(r#"{{"v":1,"op":"close","session":{id}}}"#)));
        assert_eq!(closed.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            error_code(&h.handle(&format!(r#"{{"v":1,"op":"result","session":{id}}}"#))),
            "no_session"
        );
    }

    #[test]
    fn two_sessions_share_the_region_cache() {
        let h = host();
        let a = parse(&h.handle(r#"{"v":1,"op":"create","seed":3}"#));
        let b = parse(&h.handle(r#"{"v":1,"op":"create","seed":3}"#));
        let ia = a.get("session").and_then(Json::as_u64).unwrap();
        let ib = b.get("session").and_then(Json::as_u64).unwrap();
        assert_ne!(ia, ib);
        // Identical seeds propose identical first batches, and the second
        // session's discovery probes hit what the first one cached.
        assert_eq!(
            a.get("proposals").unwrap().to_string(),
            b.get("proposals").unwrap().to_string()
        );
        let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
        assert_eq!(stats.get("sessions_active").and_then(Json::as_u64), Some(2));
        assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap() > 0);
        assert!(stats.get("cache_entries").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn stats_report_the_bytes_the_region_cache_holds() {
        let h = host();
        let bytes = |h: &SessionHost| {
            let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
            stats.get("cache_bytes").and_then(Json::as_u64).unwrap() as usize
        };
        assert_eq!(bytes(&h), 0, "a new host holds nothing");
        h.handle(r#"{"v":1,"op":"create","seed":3}"#);
        let held = bytes(&h);
        assert!(held > 0, "a session's probes are cached");
        assert_eq!(held, h.cache.bytes());
        assert!(held <= SharedRegionCache::BUDGET_BYTES);
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        let h = host();
        assert_eq!(error_code(&h.handle("")), "bad_json");
        assert_eq!(error_code(&h.handle("{not json")), "bad_json");
        assert_eq!(error_code(&h.handle(r#"{"op":"stats"}"#)), "bad_version");
        assert_eq!(error_code(&h.handle(r#"{"v":2,"op":"stats"}"#)), "bad_version");
        assert_eq!(error_code(&h.handle(r#"{"v":1}"#)), "bad_request");
        assert_eq!(error_code(&h.handle(r#"{"v":1,"op":"warp"}"#)), "unknown_op");
        assert_eq!(error_code(&h.handle(r#"{"v":1,"op":"create"}"#)), "bad_request");
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"create","seed":1,"batch":0}"#)),
            "bad_request"
        );
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"create","seed":1,"target":[]}"#)),
            "bad_request"
        );
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"create","seed":1,"target":[{"lo":[1],"hi":[2]}]}"#)),
            "bad_request"
        );
        assert_eq!(
            error_code(
                &h.handle(r#"{"v":1,"op":"create","seed":1,"target":[{"lo":[9,9],"hi":[1,1]}]}"#)
            ),
            "bad_request"
        );
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"label","session":999,"labels":[]}"#)),
            "no_session"
        );
        let created = parse(&h.handle(r#"{"v":1,"op":"create","seed":1,"batch":5}"#));
        let id = created.get("session").and_then(Json::as_u64).unwrap();
        assert_eq!(
            error_code(&h.handle(&format!(
                r#"{{"v":1,"op":"label","session":{id},"labels":[true]}}"#
            ))),
            "bad_labels"
        );
        assert_eq!(
            error_code(&h.handle(&format!(
                r#"{{"v":1,"op":"label","session":{id},"labels":[1,2,3]}}"#
            ))),
            "bad_labels"
        );
    }

    #[test]
    fn session_limit_and_idle_eviction() {
        let config = ServeConfig {
            max_sessions: 1,
            idle_timeout: Duration::from_secs(0),
            ..ServeConfig::default()
        };
        let h = SessionHost::new(uniform_view(5_000, 2, 2), ServeConfig {
            idle_timeout: Duration::from_secs(3600),
            ..config.clone()
        });
        let first = parse(&h.handle(r#"{"v":1,"op":"create","seed":1}"#));
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"create","seed":2}"#)),
            "session_limit"
        );
        // With a zero idle timeout the first session is evicted on the
        // next create, freeing its slot.
        let h = SessionHost::new(uniform_view(5_000, 2, 2), config);
        let first = parse(&h.handle(r#"{"v":1,"op":"create","seed":1}"#));
        let first_id = first.get("session").and_then(Json::as_u64).unwrap();
        let second = parse(&h.handle(r#"{"v":1,"op":"create","seed":2}"#));
        assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
        let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
        assert_eq!(stats.get("sessions_evicted").and_then(Json::as_u64), Some(1));
        assert_eq!(
            error_code(&h.handle(&format!(r#"{{"v":1,"op":"result","session":{first_id}}}"#))),
            "no_session"
        );
    }

    #[test]
    fn seeds_must_be_exact_integers() {
        let h = host();
        // 2^53 - 1 is the largest seed a JSON number carries exactly…
        let ok = parse(&h.handle(r#"{"v":1,"op":"create","seed":9007199254740991,"batch":5}"#));
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true));
        // …2^53 + 1 would parse as 2^53 and silently run the wrong seed.
        assert_eq!(
            error_code(&h.handle(r#"{"v":1,"op":"create","seed":9007199254740993}"#)),
            "bad_request"
        );
        assert_eq!(
            error_code(&h.handle(
                r#"{"v":1,"op":"label","session":9007199254740993,"labels":[]}"#
            )),
            "bad_request"
        );
    }

    #[test]
    fn racing_creates_never_overshoot_the_session_limit() {
        let h = SessionHost::new(uniform_view(200_000, 2, 3), ServeConfig {
            max_sessions: 2,
            ..ServeConfig::default()
        });
        let start = std::sync::Barrier::new(9);
        let done = std::sync::atomic::AtomicBool::new(false);
        let (oks, peak) = std::thread::scope(|scope| {
            let creators: Vec<_> = (0..8)
                .map(|seed| {
                    let (h, start) = (&h, &start);
                    scope.spawn(move || {
                        start.wait();
                        let frame = format!(r#"{{"v":1,"op":"create","seed":{seed},"batch":5}}"#);
                        parse(&h.handle(&frame)).get("ok").and_then(Json::as_bool) == Some(true)
                    })
                })
                .collect();
            let poller = scope.spawn(|| {
                start.wait();
                let mut peak = 0;
                while !done.load(Ordering::Relaxed) {
                    let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
                    peak = peak.max(stats.get("sessions_active").and_then(Json::as_u64).unwrap());
                }
                peak
            });
            let oks = creators
                .into_iter()
                .map(|c| c.join().unwrap())
                .filter(|&ok| ok)
                .count();
            done.store(true, Ordering::Relaxed);
            (oks, poller.join().unwrap())
        });
        assert!(oks <= 2, "{oks} creates succeeded under a cap of 2");
        assert!(peak <= 2, "stats reported {peak} live sessions under a cap of 2");
        let stats = parse(&h.handle(r#"{"v":1,"op":"stats"}"#));
        assert_eq!(stats.get("sessions_active").and_then(Json::as_u64), Some(oks as u64));
    }

    #[test]
    fn bounded_reads_reject_oversized_and_non_utf8_lines() {
        let mut long = vec![b'a'; MAX_FRAME + 10];
        long.push(b'\n');
        match read_frame(&mut &long[..]).unwrap() {
            Frame::Oversized => {}
            _ => panic!("oversized line must be rejected"),
        }
        // Oversized even without a terminating newline (the cap applies
        // while reading, not after).
        let unterminated = vec![b'a'; MAX_FRAME + 10];
        match read_frame(&mut &unterminated[..]).unwrap() {
            Frame::Oversized => {}
            _ => panic!("unterminated oversized stream must be rejected"),
        }
        match read_frame(&mut &b"\xff\xfe\n"[..]).unwrap() {
            Frame::NotUtf8 => {}
            _ => panic!("non-UTF-8 line must be rejected"),
        }
        match read_frame(&mut &b"{\"v\":1}\n"[..]).unwrap() {
            Frame::Line(l) => assert_eq!(l, "{\"v\":1}"),
            _ => panic!("plain line must pass"),
        }
        match read_frame(&mut &b"partial"[..]).unwrap() {
            Frame::Eof => {}
            _ => panic!("EOF mid-line closes the connection"),
        }
    }
}
