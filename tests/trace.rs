//! Trace-stream determinism regression tests.
//!
//! The tracing layer must observe the steering loop without perturbing
//! it, and its *content* must be part of the determinism contract: for
//! each of the four session configs pinned in `determinism.rs`, the
//! timing-stripped event stream (every field except `t_us` and `*_us`
//! durations) must be byte-identical between a 1-thread and a 4-thread
//! pool. Wall-clock fields are the only thing allowed to differ.
//!
//! If `AIDE_THREADS` is set (CI's threads matrix), it overrides both
//! configs identically — the equality check stays meaningful, it just
//! compares two runs at the same count, which also pins run-to-run
//! reproducibility.

use std::sync::Arc;

use aide::core::{DiscoveryStrategy, ExplorationSession, SessionConfig, TargetQuery};
use aide::data::sdss_like;
use aide::index::{ExtractionEngine, IndexKind};
use aide::util::geom::Rect;
use aide::util::rng::Xoshiro256pp;
use aide::util::trace::{stripped_jsonl, Event, Tracer};

/// Run a 12-iteration session with an enabled tracer and return the
/// timing-stripped JSONL of everything it emitted.
fn traced_stream(config: SessionConfig) -> String {
    stripped_jsonl(&traced_events(config))
}

/// Run a 12-iteration session with an enabled tracer and return every
/// event it emitted, wall-clock fields included.
fn traced_events(config: SessionConfig) -> Vec<Event> {
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let table = sdss_like(30_000).generate(&mut rng);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let target = TargetQuery::new(vec![
        Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]),
        Rect::new(vec![15.0, 10.0], vec![21.0, 16.0]),
    ]);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let tracer = config.tracer.clone();
    let mut s = ExplorationSession::new(
        config,
        engine,
        Arc::clone(&view),
        target,
        Xoshiro256pp::seed_from_u64(12),
    );
    for _ in 0..12 {
        s.run_iteration();
    }
    s.finish_trace();
    let events = tracer.drain();
    assert!(!events.is_empty(), "an enabled tracer captured nothing");
    events
}

/// Assert the stripped stream is identical at 1 and 4 worker threads,
/// and return it for further checks.
fn assert_thread_invariant(make: impl Fn() -> SessionConfig) -> String {
    let one = traced_stream(SessionConfig {
        threads: 1,
        tracer: Tracer::new(),
        ..make()
    });
    let four = traced_stream(SessionConfig {
        threads: 4,
        tracer: Tracer::new(),
        ..make()
    });
    assert_eq!(
        one, four,
        "timing-stripped trace differs between 1 and 4 threads"
    );
    one
}

#[test]
fn grid_trace_is_thread_count_invariant() {
    let stream = assert_thread_invariant(SessionConfig::default);
    // Spot-check the stream carries the expected structure.
    assert!(stream.contains(r#""k":"session_start""#));
    assert!(stream.contains(r#""strategy":"grid""#));
    assert!(stream.contains(r#""k":"wave""#));
    assert!(stream.contains(r#""k":"eval""#));
    assert!(stream.contains(r#""k":"iter_end""#));
    // Every CART retrain reports its fit (the leaves-touched count is
    // thread-invariant: routing and split search are deterministic).
    assert!(stream.contains(r#""k":"model_fit""#));
    assert!(stream.contains(r#""model":"cart""#));
    // The strip rule removed every wall-clock field.
    assert!(!stream.contains("t_us"));
    assert!(!stream.contains("dur_us"));
}

#[test]
fn cluster_trace_is_thread_count_invariant() {
    let stream = assert_thread_invariant(|| SessionConfig {
        discovery_strategy: DiscoveryStrategy::Clustering,
        ..SessionConfig::default()
    });
    assert!(stream.contains(r#""strategy":"clustering""#));
}

#[test]
fn hybrid_trace_is_thread_count_invariant() {
    let stream = assert_thread_invariant(|| SessionConfig {
        discovery_strategy: DiscoveryStrategy::Hybrid,
        hybrid_switch_after: 8,
        hybrid_min_hit_rate: 0.3,
        ..SessionConfig::default()
    });
    assert!(stream.contains(r#""strategy":"hybrid""#));
}

#[test]
fn adaptive_trace_is_thread_count_invariant() {
    let stream = assert_thread_invariant(|| SessionConfig {
        adaptive_misclass_y: true,
        clustered_misclassified: false,
        misclass_retire_after: 2,
        eval_every: 3,
        ..SessionConfig::default()
    });
    // eval_every = 3 gates in-loop eval events to a third of the
    // iterations; finish_trace adds one refresh for the stale final model.
    let evals = stream.matches(r#""k":"eval""#).count();
    let iters = stream.matches(r#""k":"iter_end""#).count();
    assert_eq!(iters, 12);
    assert_eq!(evals, 5, "4 periodic evals (eval_every=3) + 1 final refresh");
}

#[test]
fn stripped_trace_is_shard_count_invariant() {
    // The engine is monolithic: no shard count exists to vary, so the
    // only remaining axis is the worker-thread count. The raw stream
    // (wall-clock fields included) must carry no shard field at all —
    // no `shards` on `session_start`, no `shard_examined` on waves —
    // and the stripped stream must be identical at 1 and 4 threads.
    let raw = |threads: usize| {
        traced_events(SessionConfig {
            threads,
            tracer: Tracer::new(),
            ..SessionConfig::default()
        })
    };
    let one = raw(1);
    let four = raw(4);
    for event in one.iter().chain(&four) {
        let line = event.to_jsonl(false);
        assert!(
            !line.contains("shard"),
            "trace event carries a shard field: {line}"
        );
    }
    assert_eq!(
        stripped_jsonl(&one),
        stripped_jsonl(&four),
        "timing-stripped trace differs between 1 and 4 threads"
    );
}

#[test]
fn tracing_does_not_perturb_the_steering_loop() {
    // A traced session and an untraced one must produce identical
    // labels, model and costs — tracing is observation only.
    let run = |tracer: Tracer| {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let table = sdss_like(30_000).generate(&mut rng);
        let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
        let target = TargetQuery::new(vec![
            Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]),
            Rect::new(vec![15.0, 10.0], vec![21.0, 16.0]),
        ]);
        let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
        let mut s = ExplorationSession::new(
            SessionConfig {
                tracer,
                ..SessionConfig::default()
            },
            engine,
            Arc::clone(&view),
            target,
            Xoshiro256pp::seed_from_u64(12),
        );
        for _ in 0..12 {
            s.run_iteration();
        }
        let last = s.history().last().unwrap().clone();
        let sql = s.predicted_selection("sky").to_sql();
        (last.total_labeled, last.f_measure.to_bits(), sql)
    };
    assert_eq!(run(Tracer::disabled()), run(Tracer::new()));
}
