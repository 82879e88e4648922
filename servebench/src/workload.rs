//! The three analyst workloads and the per-session inputs drawn from a seed.

use aide_core::{SizeClass, TargetQuery};
use aide_data::NumericView;
use aide_util::rng::SeedStream;

/// Which dataset a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataKind {
    /// SDSS-like table projected on (`rowc`, `colc`).
    Sdss,
    /// Uniform 2-D lanes.
    Uniform,
}

/// One traffic mix against `aide serve`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub data: DataKind,
    pub rows: usize,
    /// Concurrent closed-loop analysts, one connection and one client
    /// thread each.
    pub conns: usize,
    /// `label` rounds per session before `result` and `close`.
    pub rounds: usize,
    pub batch: usize,
    /// Whether `create` carries the analyst's target, which makes the
    /// server evaluate F over the full view every round.
    pub target_in_create: bool,
    /// Server boots per run; `setup_s` is their median.
    pub boots: usize,
    /// Sessions each connection runs per second of `--seconds`. The run
    /// fixes its session list from this once, so every run of a seed does
    /// the same work; on a 2-vCPU host its sessions take about 1 to 1.5
    /// times `--seconds`.
    pub sessions_per_conn_per_s: f64,
}

impl Workload {
    /// Labels a session gives when it runs all its rounds.
    pub fn label_cap(&self) -> usize {
        self.rounds * self.batch
    }

    /// Sessions each connection runs in a run of `seconds`.
    pub fn sessions_per_conn(&self, seconds: f64) -> usize {
        (seconds * self.sessions_per_conn_per_s).ceil().max(1.0) as usize
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "analyst_long_1m",
        data: DataKind::Sdss,
        rows: 1_000_000,
        // One analyst: two connections keep both vCPUs busy with server
        // work, so each round's time would hinge on how the host
        // co-schedules them. Even so its millisecond rounds drift with
        // the host's load by more than its bounds allow, so it is not
        // among `BENCHMARK.json`'s workloads (see the README).
        conns: 1,
        rounds: 60,
        batch: 20,
        target_in_create: false,
        boots: 25,
        sessions_per_conn_per_s: 2.0,
    },
    Workload {
        name: "analyst_churn_10m",
        data: DataKind::Uniform,
        rows: 10_000_000,
        conns: 2,
        rounds: 4,
        batch: 20,
        target_in_create: false,
        boots: 5,
        sessions_per_conn_per_s: 1.5,
    },
    Workload {
        name: "paper_eval_1m",
        data: DataKind::Sdss,
        rows: 1_000_000,
        conns: 1,
        rounds: 30,
        batch: 20,
        target_in_create: true,
        boots: 25,
        sessions_per_conn_per_s: 1.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What one simulated analyst is after, and the session seed it sends.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    pub index: u64,
    pub seed: u64,
    pub target: TargetQuery,
}

/// The first `n` session specs of a run. Targets are anchored on data
/// (`TargetQuery::generate`), so relevant objects turn up early; area
/// count and size class cycle through all six pairs (1–3 areas × medium,
/// large) so every run averages the same mix. Small areas (1–3 % wide)
/// are left out: within a session's 600–1200 labels they are found or
/// missed by luck, which makes each session a coin flip for F and for
/// the mix of discovery-only and steering rounds.
pub fn session_specs(view: &NumericView, seed: u64, n: u64) -> Vec<SessionSpec> {
    let stream = SeedStream::new(seed ^ 0xA11A_5E55);
    let sizes = [SizeClass::Medium, SizeClass::Large];
    (0..n)
        .map(|k| {
            let mut rng = stream.stream(2 * k);
            let areas = 1 + (k % 3) as usize;
            let size = sizes[((k / 3) % 2) as usize];
            let target = TargetQuery::generate(view, areas, size, view.dims(), &mut rng);
            // JSON numbers are f64 on the server, so a seed must fit in 53
            // bits to arrive intact; 32 bits keep it well inside.
            let seed = aide_util::rng::Rng::next_u64(&mut stream.stream(2 * k + 1)) >> 32;
            SessionSpec {
                index: k,
                seed,
                target,
            }
        })
        .collect()
}
