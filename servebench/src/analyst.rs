//! One simulated analyst: a closed loop over `aide-serve/1` that labels
//! each proposal by membership in its target and sends the next `label`
//! frame with zero think time, checking every response on the way.

use std::collections::HashSet;
use std::time::Instant;

use aide_util::json::Json;

use crate::server::Transport;
use crate::workload::{SessionSpec, Workload};

/// The F an analyst session must reach for `labels_to_f70_mean`.
pub const F_TARGET: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Create,
    Label,
    Result,
    Close,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Label => "label",
            Op::Result => "result",
            Op::Close => "close",
        }
    }
}

/// One request/response exchange, kept only when the caller records.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub op: Op,
    pub request: String,
    pub response: String,
}

/// One `label` round trip.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub ms: f64,
    /// Whether the proposals returned by this round came from a model:
    /// after it, both classes are labeled, so the misclassified and
    /// boundary phases run. Otherwise discovery alone proposed them.
    pub steering: bool,
    pub f: Option<f64>,
    pub total_labeled: usize,
}

/// A completed session lifecycle.
#[derive(Debug, Clone)]
pub struct SessionLog {
    pub index: u64,
    pub create_ms: f64,
    pub rounds: Vec<Round>,
    pub final_f: Option<f64>,
    pub exchanges: Vec<Exchange>,
}

impl SessionLog {
    /// Labels until a round's `f` first reached [`F_TARGET`]; `cap` when
    /// it never did.
    pub fn labels_to_f_target(&self, cap: usize) -> usize {
        self.rounds
            .iter()
            .find(|r| r.f.is_some_and(|f| f >= F_TARGET))
            .map_or(cap, |r| r.total_labeled)
    }
}

/// Operations attempted and failed, and output checks that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: u64,
    /// Rows proposed twice within one batch (see [`run_session`]).
    pub repeats: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, msg: String) {
        if self.notes.len() < 10 {
            self.notes.push(msg);
        }
    }

    pub fn violation(&mut self, msg: String) {
        self.violations += 1;
        self.note(msg);
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.repeats += other.repeats;
        for n in other.notes {
            self.note(n);
        }
    }
}

/// Why a session ended early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// An operation failed; the connection is still usable.
    Failed,
    /// The transport broke; the connection is gone.
    Broken,
}

struct Client<'a, T: Transport> {
    transport: &'a mut T,
    tally: &'a mut Tally,
    record: bool,
    exchanges: Vec<Exchange>,
}

impl<T: Transport> Client<'_, T> {
    /// Sends one frame, timing the round trip. An `ok:false` response is
    /// a failed operation; a response that is not JSON also breaks a check.
    fn call(&mut self, op: Op, request: String) -> Result<(Json, f64), Stop> {
        self.tally.attempted += 1;
        let start = Instant::now();
        let response = self.transport.call(&request);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(format!("{}: {e}", op.name()));
                return Err(Stop::Broken);
            }
        };
        let json = match Json::parse(&response) {
            Ok(j) => j,
            Err(e) => {
                self.tally
                    .fail(format!("{}: response is not JSON: {e}", op.name()));
                self.tally
                    .violation(format!("{}: unparsable response", op.name()));
                return Err(Stop::Failed);
            }
        };
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = json.get("error").and_then(Json::as_str).unwrap_or("?");
            self.tally.fail(format!("{}: error {code}", op.name()));
            return Err(Stop::Failed);
        }
        if self.record {
            self.exchanges.push(Exchange {
                op,
                request,
                response,
            });
        }
        Ok((json, ms))
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally.violation(what());
        }
    }
}

/// Reads a response's `proposals` as `(row, point)` pairs.
fn proposals(json: &Json, dims: usize) -> Option<Vec<(u64, Vec<f64>)>> {
    json.get("proposals")?
        .as_array()?
        .iter()
        .map(|p| {
            let row = p.get("row")?.as_u64()?;
            let point: Option<Vec<f64>> = p
                .get("point")?
                .as_array()?
                .iter()
                .map(Json::as_f64)
                .collect();
            let point = point?;
            (point.len() == dims).then_some((row, point))
        })
        .collect()
}

fn create_frame(w: &Workload, spec: &SessionSpec) -> String {
    let mut frame = format!(
        r#"{{"v":1,"op":"create","seed":{},"batch":{}"#,
        spec.seed, w.batch
    );
    if w.target_in_create {
        let areas: Vec<String> = spec
            .target
            .areas()
            .iter()
            .map(|r| {
                let lo: Vec<String> = (0..r.dims())
                    .map(|d| Json::Num(r.lo(d)).to_string())
                    .collect();
                let hi: Vec<String> = (0..r.dims())
                    .map(|d| Json::Num(r.hi(d)).to_string())
                    .collect();
                format!(r#"{{"lo":[{}],"hi":[{}]}}"#, lo.join(","), hi.join(","))
            })
            .collect();
        frame.push_str(&format!(r#","target":[{}]"#, areas.join(",")));
    }
    frame.push('}');
    frame
}

/// Runs one session lifecycle — create, up to `w.rounds` label rounds,
/// result, close — and checks every response against what the analyst
/// sent. `dims` is the hello frame's dimensionality.
pub fn run_session<T: Transport>(
    transport: &mut T,
    w: &Workload,
    spec: &SessionSpec,
    dims: usize,
    record: bool,
    tally: &mut Tally,
) -> Result<SessionLog, Stop> {
    let mut d = Client {
        transport,
        tally,
        record,
        exchanges: Vec::new(),
    };
    let (created, create_ms) = d.call(Op::Create, create_frame(w, spec))?;
    let Some(id) = created.get("session").and_then(Json::as_u64) else {
        d.tally.violation("create: no session id".into());
        return Err(Stop::Failed);
    };
    let outcome = drive(&mut d, w, spec, dims, id, &created);
    let (rounds, labeled) = match outcome {
        Ok(v) => v,
        Err(stop) => {
            if stop == Stop::Failed {
                let _ = d.call(
                    Op::Close,
                    format!(r#"{{"v":1,"op":"close","session":{id}}}"#),
                );
            }
            return Err(stop);
        }
    };
    let (result, _) = d.call(
        Op::Result,
        format!(r#"{{"v":1,"op":"result","session":{id}}}"#),
    )?;
    let sql = result
        .get("sql")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    d.check(aide_query::parse_selection(&sql).is_ok(), || {
        format!("result of session {id}: SQL does not parse: {sql:?}")
    });
    d.check(
        result.get("total_labeled").and_then(Json::as_u64) == Some(labeled as u64)
            && result.get("iterations").and_then(Json::as_u64) == Some(rounds.len() as u64),
        || format!("result of session {id}: label or iteration count differs from the rounds sent"),
    );
    let final_f = result.get("final_f").and_then(Json::as_f64);
    if w.target_in_create {
        let last = rounds.last().and_then(|r| r.f);
        d.check(
            final_f.is_some() && final_f.map(f64::to_bits) == last.map(f64::to_bits),
            || format!("result of session {id}: final_f {final_f:?} is not the last round's f {last:?}"),
        );
    }
    d.call(
        Op::Close,
        format!(r#"{{"v":1,"op":"close","session":{id}}}"#),
    )?;
    Ok(SessionLog {
        index: spec.index,
        create_ms,
        rounds,
        final_f,
        exchanges: d.exchanges,
    })
}

/// The label rounds of one session; returns them and the rows labeled.
fn drive<T: Transport>(
    d: &mut Client<'_, T>,
    w: &Workload,
    spec: &SessionSpec,
    dims: usize,
    id: u64,
    created: &Json,
) -> Result<(Vec<Round>, usize), Stop> {
    // Rows labeled in earlier rounds: the server excludes them from every
    // later proposal, so seeing one again is a defect. A row repeated
    // *within* one batch is not: the phases of one iteration sample
    // independently and the session folds the repeat into one label, as
    // `ExplorationSession::propose_iteration` documents. Repeats are
    // counted.
    let mut labeled: HashSet<u64> = HashSet::new();
    let fresh =
        |d: &mut Client<'_, T>, json: &Json, labeled: &HashSet<u64>| -> Vec<(u64, Vec<f64>)> {
            let Some(props) = proposals(json, dims) else {
                d.tally
                    .violation(format!("session {id}: malformed proposals"));
                return Vec::new();
            };
            d.check(props.len() <= w.batch, || {
                format!("session {id}: more proposals than the batch")
            });
            let mut batch: HashSet<u64> = HashSet::new();
            for (row, _) in &props {
                if labeled.contains(row) {
                    d.tally.violation(format!(
                        "session {id}: row {row} proposed again after it was labeled"
                    ));
                } else if !batch.insert(*row) {
                    d.tally.repeats += 1;
                }
            }
            props
        };
    let mut pending = fresh(d, created, &labeled);
    let mut rounds = Vec::with_capacity(w.rounds);
    let mut relevant = 0usize;
    for iter in 0..w.rounds {
        if pending.is_empty() {
            break;
        }
        let labels: Vec<bool> = pending
            .iter()
            .map(|(_, p)| spec.target.contains(p))
            .collect();
        d.check(labels.len() == pending.len(), || {
            format!(
                "session {id}: {} labels for {} proposals",
                labels.len(),
                pending.len()
            )
        });
        let before = labeled.len();
        for ((row, _), &label) in pending.iter().zip(&labels) {
            if labeled.insert(*row) && label {
                relevant += 1;
            }
        }
        let text: Vec<&str> = labels
            .iter()
            .map(|&l| if l { "true" } else { "false" })
            .collect();
        let frame = format!(
            r#"{{"v":1,"op":"label","session":{id},"labels":[{}]}}"#,
            text.join(",")
        );
        let (reply, ms) = d.call(Op::Label, frame)?;
        let num = |k: &str| reply.get(k).and_then(Json::as_u64);
        d.check(
            num("iter") == Some(iter as u64)
                && num("new_samples") == Some((labeled.len() - before) as u64)
                && num("total_labeled") == Some(labeled.len() as u64)
                && num("relevant_labeled") == Some(relevant as u64),
            || format!("session {id} round {iter}: counts differ from the labels sent"),
        );
        let f = reply.get("f").and_then(Json::as_f64);
        d.check(f.is_some() == w.target_in_create, || {
            format!("session {id} round {iter}: `f` present is {}", f.is_some())
        });
        pending = fresh(d, &reply, &labeled);
        let done = reply.get("done").and_then(Json::as_bool);
        d.check(done == Some(pending.is_empty()), || {
            format!("session {id} round {iter}: `done` disagrees with the proposals")
        });
        rounds.push(Round {
            ms,
            steering: relevant > 0 && relevant < labeled.len(),
            f,
            total_labeled: labeled.len(),
        });
    }
    Ok((rounds, labeled.len()))
}
