//! Full-session determinism regression tests.
//!
//! The batched extraction layer, the region-result cache and the
//! incremental model maintenance must be *invisible* to the steering
//! loop: the fingerprints pinned here — label sequence, relevant
//! counts, F-measure bits, predicted SQL and total extraction queries —
//! pin the exact behavior of the current sampling discipline. Any drift
//! in labels, RNG stream, query issuance or model output changes a
//! fingerprint and fails.
//!
//! The fingerprints were re-recorded exactly twice, each time for a
//! named change of which rows the same sampling distribution draws:
//! once when sample selection moved from serial draws on the shared
//! session RNG to parallel selection on pre-split per-request streams
//! (plus warm k-means seeding, which skips the k-means++ draws), and
//! once when `Rng::sample_indices` moved from reservoir sampling
//! (algorithm R, one draw per candidate) to Floyd's algorithm (one draw
//! per sample). Both draw every k-subset with equal probability.
//!
//! Thread independence is covered twice: CI's threads matrix runs this
//! file under both `AIDE_THREADS=1` and `AIDE_THREADS=4`, and the
//! in-process matrix tests below pin each strategy's fingerprint at 1
//! and 4 worker threads.

use std::sync::Arc;

use aide::core::{DiscoveryStrategy, ExplorationSession, SessionConfig, TargetQuery};
use aide::data::sdss_like;
use aide::index::{ExtractionEngine, IndexKind};
use aide::util::geom::Rect;
use aide::util::rng::Xoshiro256pp;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

struct Fingerprint {
    labeled: usize,
    relevant: usize,
    f_bits: u64,
    hash: u64,
    queries_total: u64,
}

fn run_session(config: SessionConfig) -> (ExplorationSession, Fingerprint) {
    let mut rng = Xoshiro256pp::seed_from_u64(11);
    let table = sdss_like(30_000).generate(&mut rng);
    let view = Arc::new(table.numeric_view(&["rowc", "colc"]).unwrap());
    let target = TargetQuery::new(vec![
        Rect::new(vec![40.0, 55.0], vec![48.0, 63.0]),
        Rect::new(vec![15.0, 10.0], vec![21.0, 16.0]),
    ]);
    let engine = ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid);
    let mut s = ExplorationSession::new(
        config,
        engine,
        Arc::clone(&view),
        target,
        Xoshiro256pp::seed_from_u64(12),
    );
    for _ in 0..30 {
        s.run_iteration();
    }
    let labeled = s.labeled();
    let mut h: u64 = 0xcbf29ce484222325;
    for i in 0..labeled.len() {
        fnv1a(&mut h, &labeled.row_id(i).to_le_bytes());
        fnv1a(&mut h, &[labeled.labels()[i] as u8]);
    }
    let sql = s.predicted_selection("sky").to_sql();
    fnv1a(&mut h, sql.as_bytes());
    let last = s.history().last().unwrap();
    let fp = Fingerprint {
        labeled: labeled.len(),
        relevant: last.relevant_labeled,
        f_bits: last.f_measure.to_bits(),
        hash: h,
        queries_total: s.history().iter().map(|r| r.extraction.queries).sum(),
    };
    (s, fp)
}

fn assert_fp(got: &Fingerprint, want: &Fingerprint) {
    assert_eq!(got.labeled, want.labeled, "label count drifted");
    assert_eq!(got.relevant, want.relevant, "relevant count drifted");
    assert_eq!(
        got.f_bits, want.f_bits,
        "F-measure bits drifted: {:#x} vs {:#x}",
        got.f_bits, want.f_bits
    );
    assert_eq!(
        got.hash, want.hash,
        "label-sequence/SQL hash drifted: {:#x} vs {:#x}",
        got.hash, want.hash
    );
    assert_eq!(
        got.queries_total, want.queries_total,
        "extraction-query count drifted (batching must not over-query)"
    );
}

#[test]
fn grid_session_fingerprint_is_pinned() {
    let (config, want) = pinned().swap_remove(0);
    let (s, fp) = run_session(config);
    assert_fp(&fp, &want);
    // The cache is on by default and observable: repeated probes (density
    // rectangles, re-expanded sampling areas) hit, and the session cost
    // summary reports the rate.
    let totals = s.result().extraction_totals();
    assert!(totals.cache_hits > 0, "no cache hit across a whole session");
    assert_eq!(totals.cache_hits + totals.cache_misses, totals.queries);
    assert!(s.result().cost_summary().contains("hit rate"));
}

#[test]
fn cluster_session_fingerprint_is_pinned() {
    let (config, want) = pinned().swap_remove(1);
    assert_fp(&run_session(config).1, &want);
}

#[test]
fn hybrid_session_fingerprint_is_pinned() {
    let (config, want) = pinned().swap_remove(2);
    assert_fp(&run_session(config).1, &want);
}

#[test]
fn adaptive_session_fingerprint_is_pinned() {
    let (config, want) = pinned().swap_remove(3);
    assert_fp(&run_session(config).1, &want);
}

/// The four pinned fingerprints, in the order of the tests above, with
/// the config override that produces each.
fn pinned() -> Vec<(SessionConfig, Fingerprint)> {
    vec![
        (
            SessionConfig::default(),
            Fingerprint {
                labeled: 600,
                relevant: 48,
                f_bits: 0x3fe601e741aa5974,
                hash: 0xbf164a36a414132b,
                queries_total: 859,
            },
        ),
        (
            SessionConfig {
                discovery_strategy: DiscoveryStrategy::Clustering,
                ..SessionConfig::default()
            },
            Fingerprint {
                labeled: 599,
                relevant: 50,
                f_bits: 0x3feb69b85addecc8,
                hash: 0xe784ff67f2f9f453,
                queries_total: 508,
            },
        ),
        (
            SessionConfig {
                discovery_strategy: DiscoveryStrategy::Hybrid,
                hybrid_switch_after: 8,
                hybrid_min_hit_rate: 0.3,
                ..SessionConfig::default()
            },
            Fingerprint {
                labeled: 600,
                relevant: 43,
                f_bits: 0x3fe848c585d903e6,
                hash: 0x89532aea877db786,
                queries_total: 849,
            },
        ),
        (
            SessionConfig {
                adaptive_misclass_y: true,
                clustered_misclassified: false,
                misclass_retire_after: 2,
                eval_every: 3,
                ..SessionConfig::default()
            },
            Fingerprint {
                labeled: 600,
                relevant: 31,
                f_bits: 0x3fee523689907bb9,
                hash: 0x853e1c2115192490,
                queries_total: 846,
            },
        ),
    ]
}

/// Runs one strategy at explicit worker-thread counts and asserts the
/// pinned fingerprint every time. `AIDE_THREADS`, when set, beats the
/// config value, so under CI's env matrix every run still asserts the
/// same fingerprint — just at the env-resolved thread count.
fn assert_matrix(which: usize, threads: &[usize]) {
    let (config, want) = pinned().swap_remove(which);
    for &threads in threads {
        let (_, fp) = run_session(SessionConfig {
            threads,
            ..config.clone()
        });
        assert_fp(&fp, &want);
    }
}

#[test]
fn grid_fingerprint_is_thread_invariant() {
    assert_matrix(0, &[1, 4]);
}

#[test]
fn cluster_fingerprint_is_thread_invariant() {
    assert_matrix(1, &[1, 4]);
}

#[test]
fn hybrid_fingerprint_is_thread_invariant() {
    assert_matrix(2, &[1, 4]);
}

#[test]
fn adaptive_fingerprint_is_thread_invariant() {
    assert_matrix(3, &[1, 4]);
}
