//! Structured session tracing: ring-buffered typed events with a
//! hand-rolled JSONL writer (schema `aide-trace/1`).
//!
//! The steering loop reports a single `cost_summary()` line at the end of
//! a session; this module is the window into everything in between. A
//! [`Tracer`] is a cheap cloneable handle threaded through
//! `SessionConfig` into the session, the extraction engine and the
//! evaluation kernel. Each layer emits typed [`Event`] records —
//! session/iteration/phase spans, per-wave extraction stats, eval
//! snapshots, pool chunk counts — into one shared ring buffer, which is
//! drained once at the end and serialized to JSONL.
//!
//! Two properties are contractual (and pinned by `tests/trace.rs`):
//!
//! * **Disabled is free.** [`Tracer::disabled()`] holds no allocation;
//!   every emission is a single `Option` branch. Session code never pays
//!   for tracing it did not ask for (`substrate/trace` benches the pair).
//! * **Content is deterministic.** Every field except the wall-clock ones
//!   (`t_us` and any `*_us` duration) is a pure function of the session's
//!   seed and configuration — never of `AIDE_THREADS`. Serializing with
//!   [`strip_timing`](Event::to_jsonl) therefore yields byte-identical
//!   output on 1 thread and 64, composing with the [`crate::par`]
//!   determinism contract.
//!
//! The full field-by-field schema lives in `ARCHITECTURE.md`; it is the
//! normative reference for `scripts/trace_report.py`.
//!
//! ```
//! use aide_util::trace::{Tracer, Value};
//!
//! let tracer = Tracer::ring(1024);
//! tracer.begin_iteration(0);
//! tracer.begin_phase("discovery");
//! tracer.wave(4, 4, 0, 4, 1000, 12, 250);
//! tracer.emit_scoped("phase_end", vec![("samples", Value::from(12u64))]);
//! let events = tracer.drain();
//! assert_eq!(events.len(), 4);
//! // Timing-stripped serialization is deterministic across thread counts.
//! let line = events[2].to_jsonl(true);
//! assert_eq!(
//!     line,
//!     r#"{"k":"wave","iter":0,"phase":"discovery","wave":0,"rects":4,"queries":4,"cache_hits":0,"cache_misses":4,"tuples_examined":1000,"tuples_returned":12}"#
//! );
//! ```

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema identifier stamped into the JSONL header line.
pub const TRACE_SCHEMA: &str = "aide-trace/1";

/// Default ring-buffer capacity (events) for [`Tracer::new`].
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// A single typed field value inside an [`Event`].
///
/// The closed set keeps the hand-rolled writer total: every variant has
/// exactly one JSON rendering, chosen so that bit-identical inputs always
/// produce byte-identical text (floats use Rust's shortest-roundtrip
/// formatting; non-finite floats serialize as `null`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned counter (queries, tuples, iterations…).
    U64(u64),
    /// Floating-point measurement (F-measure, precision…).
    F64(f64),
    /// Short string tag (phase name, strategy…).
    Str(String),
    /// Boolean flag (cache enabled…).
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                out.push_str(&v.to_string());
            }
            Value::F64(v) => {
                out.push_str(&json_number(*v));
            }
            Value::Str(s) => {
                out.push_str(&json_string(s));
            }
            Value::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
        }
    }
}

/// One trace record: an event kind, a monotonic timestamp and an ordered
/// field list.
///
/// Field order is preserved into the JSONL output, so two event streams
/// with identical content serialize to identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the tracer's epoch (wall clock; stripped by
    /// [`to_jsonl`](Event::to_jsonl) in timing-stripped mode).
    pub t_us: u64,
    /// Event kind tag — the `"k"` key of the JSONL object.
    pub kind: &'static str,
    /// Ordered `(name, value)` pairs; names ending in `_us` are wall-clock
    /// durations, stripped alongside `t_us`.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    ///
    /// With `strip_timing`, the `t_us` timestamp and every field whose name
    /// ends in `_us` (wall clock) are omitted — what remains is the
    /// deterministic content used by the cross-thread-count fingerprint
    /// tests.
    pub fn to_jsonl(&self, strip_timing: bool) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"k\":");
        out.push_str(&json_string(self.kind));
        if !strip_timing {
            out.push_str(",\"t_us\":");
            out.push_str(&self.t_us.to_string());
        }
        for (name, value) in &self.fields {
            if strip_timing && name.ends_with("_us") {
                continue;
            }
            out.push(',');
            out.push_str(&json_string(name));
            out.push(':');
            value.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Shared mutable tracer state behind the [`Tracer`] handle.
#[derive(Debug)]
struct TraceState {
    epoch: Instant,
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    // Ambient span context: set by the session, read by the engine so that
    // `wave` events carry their iteration/phase without new parameters
    // threaded through every phase function.
    iter: u64,
    phase: Option<&'static str>,
    wave: u64,
}

impl TraceState {
    fn push(&mut self, event: Event) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A cheap, cloneable handle to a shared event ring buffer.
///
/// All clones of one enabled tracer write into the same buffer, so the
/// session can hand copies to the extraction engine and the evaluation
/// kernel and still drain one ordered stream at the end. The disabled
/// tracer ([`Tracer::disabled`], also the `Default`) holds nothing and
/// rejects every emission with a single branch.
///
/// `PartialEq` compares *identity*, not content: two tracers are equal
/// when both are disabled or both are handles to the same buffer. This is
/// what lets `SessionConfig` keep its `PartialEq` derive.
///
/// ```
/// use aide_util::trace::Tracer;
///
/// let off = Tracer::disabled();
/// assert!(!off.is_enabled());
/// assert_eq!(off.drain(), vec![]); // emissions on a disabled tracer are no-ops
///
/// let on = Tracer::ring(16);
/// let alias = on.clone();
/// assert_eq!(on, alias); // same buffer
/// assert_ne!(on, Tracer::ring(16)); // different buffer, not equal
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceState>>>,
}

impl PartialEq for Tracer {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Tracer {
    /// The no-op tracer: every emission is a single `Option` branch.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with the [`DEFAULT_CAPACITY`] ring buffer.
    pub fn new() -> Self {
        Self::ring(DEFAULT_CAPACITY)
    }

    /// An enabled tracer whose ring buffer holds at most `capacity`
    /// events; once full, the oldest event is dropped per new one and the
    /// drop is counted (reported in the JSONL header).
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceState {
                epoch: Instant::now(),
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                iter: 0,
                phase: None,
                wave: 0,
            }))),
        }
    }

    /// Whether emissions are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut TraceState) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|m| f(&mut m.lock().expect("trace state is never poisoned")))
    }

    /// Emits an event with the given fields, stamped with the monotonic
    /// time since the tracer's epoch. No-op when disabled.
    pub fn emit(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            s.push(Event { t_us, kind, fields });
        });
    }

    /// Emits an event with the ambient `iter` (and `phase`, when one is
    /// open) prepended to `fields` — the form used by phase-plan events.
    pub fn emit_scoped(&self, kind: &'static str, fields: Vec<(&'static str, Value)>) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            let mut all = Vec::with_capacity(fields.len() + 2);
            all.push(("iter", Value::U64(s.iter)));
            if let Some(phase) = s.phase {
                all.push(("phase", Value::Str(phase.to_owned())));
            }
            all.extend(fields);
            s.push(Event {
                t_us,
                kind,
                fields: all,
            });
        });
    }

    /// Opens an iteration span: sets the ambient iteration index and emits
    /// `iter_start`.
    pub fn begin_iteration(&self, iter: u64) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            s.iter = iter;
            s.phase = None;
            s.push(Event {
                t_us,
                kind: "iter_start",
                fields: vec![("iter", Value::U64(iter))],
            });
        });
    }

    /// Opens a phase span inside the current iteration: sets the ambient
    /// phase name, resets the wave counter and emits `phase_start`.
    pub fn begin_phase(&self, phase: &'static str) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            s.phase = Some(phase);
            s.wave = 0;
            s.push(Event {
                t_us,
                kind: "phase_start",
                fields: vec![
                    ("iter", Value::U64(s.iter)),
                    ("phase", Value::Str(phase.to_owned())),
                ],
            });
        });
    }

    /// Closes the open phase span: emits `phase_end` with the given
    /// per-phase totals — samples taken, extraction queries, microseconds
    /// spent selecting samples from query results, and the phase's
    /// wall-clock — and clears the ambient phase.
    pub fn end_phase(&self, samples: u64, queries: u64, select_us: u64, dur_us: u64) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            let phase = s.phase.take().unwrap_or("?");
            s.push(Event {
                t_us,
                kind: "phase_end",
                fields: vec![
                    ("iter", Value::U64(s.iter)),
                    ("phase", Value::Str(phase.to_owned())),
                    ("waves", Value::U64(s.wave)),
                    ("samples", Value::U64(samples)),
                    ("queries", Value::U64(queries)),
                    ("select_us", Value::U64(select_us)),
                    ("dur_us", Value::U64(dur_us)),
                ],
            });
        });
    }

    /// Emits one batch-extraction `wave` event under the ambient
    /// iteration/phase and advances the per-phase wave counter.
    ///
    /// Called by the extraction engine's batch entry points; the counts
    /// are deltas for this wave alone, not running session totals.
    #[allow(clippy::too_many_arguments)]
    pub fn wave(
        &self,
        rects: u64,
        queries: u64,
        cache_hits: u64,
        cache_misses: u64,
        tuples_examined: u64,
        tuples_returned: u64,
        dur_us: u64,
    ) {
        self.with_state(|s| {
            let t_us = s.epoch.elapsed().as_micros() as u64;
            let wave = s.wave;
            s.wave += 1;
            let mut fields = vec![("iter", Value::U64(s.iter))];
            if let Some(phase) = s.phase {
                fields.push(("phase", Value::Str(phase.to_owned())));
            }
            fields.extend([
                ("wave", Value::U64(wave)),
                ("rects", Value::U64(rects)),
                ("queries", Value::U64(queries)),
                ("cache_hits", Value::U64(cache_hits)),
                ("cache_misses", Value::U64(cache_misses)),
                ("tuples_examined", Value::U64(tuples_examined)),
                ("tuples_returned", Value::U64(tuples_returned)),
                ("dur_us", Value::U64(dur_us)),
            ]);
            s.push(Event {
                t_us,
                kind: "wave",
                fields,
            });
        });
    }

    /// Number of events dropped so far to the ring-buffer capacity.
    pub fn dropped(&self) -> u64 {
        self.with_state(|s| s.dropped).unwrap_or(0)
    }

    /// Removes and returns every buffered event, oldest first. Returns an
    /// empty vector on a disabled tracer.
    pub fn drain(&self) -> Vec<Event> {
        self.with_state(|s| s.events.drain(..).collect())
            .unwrap_or_default()
    }

    /// Serializes the buffered events to `out` as JSONL — one
    /// `trace_header` line (schema id, event count, drop count) followed
    /// by one line per event — and drains the buffer.
    ///
    /// With `strip_timing`, wall-clock fields are omitted everywhere; the
    /// result is byte-identical across `AIDE_THREADS` values for the same
    /// seed and configuration.
    pub fn write_jsonl<W: Write>(&self, out: &mut W, strip_timing: bool) -> io::Result<()> {
        let (events, dropped) = self
            .with_state(|s| (s.events.drain(..).collect::<Vec<_>>(), s.dropped))
            .unwrap_or_default();
        writeln!(
            out,
            "{{\"k\":\"trace_header\",\"schema\":{},\"events\":{},\"dropped\":{}}}",
            json_string(TRACE_SCHEMA),
            events.len(),
            dropped
        )?;
        for event in &events {
            writeln!(out, "{}", event.to_jsonl(strip_timing))?;
        }
        Ok(())
    }
}

/// Renders the timing-stripped JSONL for a drained event stream — the
/// deterministic fingerprint text compared across thread counts by
/// `tests/trace.rs`.
pub fn stripped_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_jsonl(true));
        out.push('\n');
    }
    out
}

/// JSON string literal with the escapes JSONL consumers require: `"` and
/// `\` are backslash-escaped and control characters become `\u00XX`.
pub fn json_string(s: &str) -> String {
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

/// JSON number rendering: shortest-roundtrip decimal for finite values,
/// `null` for NaN and infinities (JSON has no non-finite literals).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        t.emit("x", vec![("a", Value::from(1u64))]);
        t.begin_iteration(3);
        t.wave(1, 1, 0, 1, 10, 2, 5);
        assert!(!t.is_enabled());
        assert_eq!(t.drain(), vec![]);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let t = Tracer::ring(2);
        for i in 0..5u64 {
            t.emit("e", vec![("i", Value::from(i))]);
        }
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].fields[0].1, Value::U64(3));
        assert_eq!(events[1].fields[0].1, Value::U64(4));
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = Tracer::ring(8);
        let b = a.clone();
        a.emit("from_a", vec![]);
        b.emit("from_b", vec![]);
        let kinds: Vec<_> = a.drain().into_iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["from_a", "from_b"]);
        assert_eq!(a, b);
        assert_ne!(a, Tracer::ring(8));
        assert_eq!(Tracer::disabled(), Tracer::disabled());
        assert_ne!(a, Tracer::disabled());
    }

    #[test]
    fn ambient_context_flows_into_waves() {
        let t = Tracer::ring(64);
        t.begin_iteration(7);
        t.begin_phase("boundary");
        t.wave(2, 2, 1, 1, 100, 5, 42);
        t.wave(1, 1, 1, 0, 0, 3, 17);
        t.end_phase(8, 3, 56, 1234);
        let events = t.drain();
        assert_eq!(
            events[2].to_jsonl(true),
            r#"{"k":"wave","iter":7,"phase":"boundary","wave":0,"rects":2,"queries":2,"cache_hits":1,"cache_misses":1,"tuples_examined":100,"tuples_returned":5}"#
        );
        assert_eq!(
            events[3].to_jsonl(true),
            r#"{"k":"wave","iter":7,"phase":"boundary","wave":1,"rects":1,"queries":1,"cache_hits":1,"cache_misses":0,"tuples_examined":0,"tuples_returned":3}"#
        );
        // phase_end reports the wave count and clears the phase.
        assert_eq!(
            events[4].to_jsonl(true),
            r#"{"k":"phase_end","iter":7,"phase":"boundary","waves":2,"samples":8,"queries":3}"#
        );
        // The selection time is a wall-clock field: only unstripped output has it.
        assert!(events[4]
            .to_jsonl(false)
            .ends_with(r#""queries":3,"select_us":56,"dur_us":1234}"#));
    }

    #[test]
    fn strip_timing_removes_wall_clock_fields_only() {
        let e = Event {
            t_us: 99,
            kind: "eval",
            fields: vec![
                ("iter", Value::from(1u64)),
                ("f", Value::from(0.5f64)),
                ("dur_us", Value::from(777u64)),
            ],
        };
        assert_eq!(e.to_jsonl(true), r#"{"k":"eval","iter":1,"f":0.5}"#);
        assert_eq!(
            e.to_jsonl(false),
            r#"{"k":"eval","t_us":99,"iter":1,"f":0.5,"dur_us":777}"#
        );
    }

    #[test]
    fn json_string_escapes_pathological_input() {
        assert_eq!(json_string("plain"), r#""plain""#);
        assert_eq!(json_string(r#"a"b"#), r#""a\"b""#);
        assert_eq!(json_string(r"back\slash"), r#""back\\slash""#);
        assert_eq!(json_string("tab\tnewline\n"), r#""tab\u0009newline\u000a""#);
        assert_eq!(json_string("nul\u{0}byte"), r#""nul\u0000byte""#);
        assert_eq!(json_string("unicode π ✓"), r#""unicode π ✓""#);
    }

    #[test]
    fn json_number_handles_non_finite() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-0.25), "-0.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
        // Shortest-roundtrip: the same bits always print the same text.
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
    }

    #[test]
    fn jsonl_writer_emits_header_then_events() {
        let t = Tracer::ring(8);
        t.emit("a", vec![("s", Value::from(r#"quote " here"#))]);
        t.emit("b", vec![("nan", Value::from(f64::NAN))]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, false).expect("write to vec");
        let text = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(r#"{"k":"trace_header","schema":"aide-trace/1","events":2,"#));
        assert!(lines[1].contains(r#""s":"quote \" here""#));
        assert!(lines[2].ends_with(r#""nan":null}"#));
        // The writer drains: a second call writes an empty stream.
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, false).expect("write to vec");
        assert_eq!(String::from_utf8(buf).expect("utf8").lines().count(), 1);
    }
}
