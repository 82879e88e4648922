//! Figure 10(e) companion: clustering-based misclassified exploitation
//! (one extraction query per cluster) vs one query per misclassified
//! object.

use std::sync::Arc;

use aide_bench::harness::{dense_view, sdss_table};
use aide_core::misclassified::exploit_misclassified;
use aide_core::{LabeledSet, MisclassState, SessionConfig};
use aide_index::{Exclusions, ExtractionEngine, IndexKind, Sample};
use aide_testkit::bench::Harness;
use aide_util::rng::{Rng, Xoshiro256pp};

/// Builds a labeled set whose false negatives form `groups` clusters of
/// `per_group` points each.
fn fn_set(groups: usize, per_group: usize, rng: &mut Xoshiro256pp) -> (LabeledSet, Vec<usize>) {
    let mut set = LabeledSet::new(2);
    let mut id = 10_000_000u32;
    for g in 0..groups {
        let cx = 10.0 + 80.0 * (g as f64 / groups.max(2) as f64);
        let cy = 15.0 + 70.0 * ((g * 7 % groups.max(2)) as f64 / groups.max(2) as f64);
        for _ in 0..per_group {
            let point = vec![cx + rng.uniform(-1.5, 1.5), cy + rng.uniform(-1.5, 1.5)];
            set.push(
                &Sample {
                    view_index: id,
                    row_id: id,
                    point,
                },
                true,
            );
            id += 1;
        }
    }
    let indices = (0..set.len()).collect();
    (set, indices)
}

fn main() {
    let table = sdss_table(100_000, 1);
    let view = Arc::new(dense_view(&table));
    let mut h = Harness::from_args("misclassified");
    let mut group = h.group("misclassified");
    for clusters in [2usize, 5] {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let (labeled, fns) = fn_set(clusters, 8, &mut rng);
        for (name, clustered) in [("per_cluster", true), ("per_object", false)] {
            let config = SessionConfig {
                clustered_misclassified: clustered,
                ..SessionConfig::default()
            };
            let labeled = labeled.clone();
            let fns = fns.clone();
            let view = Arc::clone(&view);
            group.bench_batched(
                &format!("{name}/{clusters}groups"),
                || {
                    (
                        ExtractionEngine::from_arc(Arc::clone(&view), IndexKind::Grid),
                        Xoshiro256pp::seed_from_u64(9),
                    )
                },
                |(mut engine, mut rng)| {
                    exploit_misclassified(
                        &config,
                        &labeled,
                        &fns,
                        clusters,
                        &[],
                        200,
                        &mut engine,
                        &Exclusions::none(),
                        &mut rng,
                        &mut MisclassState::default(),
                    )
                },
            );
        }
    }
    drop(group);
    h.finish();
}
