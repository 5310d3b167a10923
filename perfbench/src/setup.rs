//! Set-up shared by the workloads: generated data, bitmap indexes, exact
//! ground truth, and the §5.2 default query configuration.

use std::time::{Duration, Instant};

use fastmatch_core::guarantees::GroundTruth;
use fastmatch_core::histogram::Histogram;
use fastmatch_core::histsim::HistSimConfig;
use fastmatch_core::Metric;
use fastmatch_data::queries::QuerySpec;
use fastmatch_engine::result::MatchOutput;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::table::Table;

use crate::trace::LayerTimer;

/// Seed of the generated datasets. Fixed, so every `--seed` queries the
/// same data and only the workload's own draws vary.
pub const DATA_SEED: u64 = 42;

/// Per-layer set-up timers (`data.generate_ms`, `store.persist_ms`,
/// `store.bitmap.build_ms`, `core.truth_ms`) of the last repetition.
#[derive(Debug, Clone, Default)]
pub struct SetupTimers {
    /// Dataset generation (including the shuffle).
    pub generate: LayerTimer,
    /// Writing data to disk (block file or live-table preload).
    pub persist: LayerTimer,
    /// Bitmap index builds.
    pub bitmap: LayerTimer,
    /// Exact ground-truth builds.
    pub truth: LayerTimer,
}

/// Runs `build` `reps` times, dropping each result before the next, and
/// returns the last result, its timers and every wall time; `setup_s` is
/// the median of the walls.
pub fn repeat_setup<T>(
    reps: usize,
    mut build: impl FnMut(&mut SetupTimers) -> T,
) -> (T, SetupTimers, Vec<Duration>) {
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    let mut timers = SetupTimers::default();
    for _ in 0..reps {
        drop(last.take());
        timers = SetupTimers::default();
        let t0 = Instant::now();
        last = Some(build(&mut timers));
        walls.push(t0.elapsed());
    }
    (last.expect("at least one repetition"), timers, walls)
}

/// Stage-1 sample count at a table size: 1% of the rows, within
/// [10⁴, 5·10⁵] (the rule the repository's experiment harnesses use).
pub fn stage1_samples(rows: usize) -> u64 {
    ((rows as u64) / 100)
        .clamp(10_000, 500_000)
        .min(rows as u64)
}

/// The §5.2 defaults (δ 0.01, ε 0.04, σ 0.0008) for a query with `k`
/// matches over `rows` rows.
pub fn paper_config(k: usize, rows: usize) -> HistSimConfig {
    HistSimConfig {
        k,
        stage1_samples: stage1_samples(rows),
        ..HistSimConfig::default()
    }
}

/// Exact per-candidate histograms of `(z, x)` and the target: the
/// reference Guarantees 1 and 2 are checked against.
pub fn ground_truth(table: &Table, z: usize, x: usize, target: &[f64]) -> GroundTruth {
    let vx = table.cardinality(x) as usize;
    let ct = table.crosstab(z, x);
    let hists: Vec<Histogram> = ct
        .chunks(vx)
        .map(|row| Histogram::from_counts(row.to_vec()))
        .collect();
    GroundTruth::new(hists, target.to_vec(), Metric::L1)
}

/// A Table 3 query resolved against its table.
#[derive(Debug)]
pub struct Prepared {
    /// The query.
    pub spec: QuerySpec,
    /// Candidate attribute.
    pub z: usize,
    /// Grouping attribute.
    pub x: usize,
    /// Normalized target.
    pub target: Vec<f64>,
    /// Query configuration.
    pub cfg: HistSimConfig,
    /// Exact reference.
    pub truth: GroundTruth,
}

impl Prepared {
    /// Resolves `spec` on `table`, timing the ground-truth build.
    pub fn new(spec: &QuerySpec, table: &Table, timers: &mut SetupTimers) -> Prepared {
        let z = spec.z_attr(table);
        let x = spec.x_attr(table);
        let (target, _) = spec.resolve_target(table);
        let truth = timers.truth.time(|| ground_truth(table, z, x, &target));
        Prepared {
            spec: spec.clone(),
            z,
            x,
            cfg: paper_config(spec.k, table.n_rows()),
            target,
            truth,
        }
    }

    /// Guarantee 1 (separation) and Guarantee 2 (reconstruction) hold
    /// for `out`.
    pub fn guarantees_hold(&self, out: &MatchOutput) -> bool {
        self.truth
            .check_separation(&out.candidate_ids(), self.cfg.epsilon, self.cfg.sigma)
            && self
                .truth
                .check_reconstruction(&out.output.matches, self.cfg.eps_reconstruction())
    }
}

/// Builds the bitmap index over `z`, timed.
pub fn bitmap(
    table: &Table,
    z: usize,
    layout: &BlockLayout,
    timers: &mut SetupTimers,
) -> BitmapIndex {
    timers.bitmap.time(|| BitmapIndex::build(table, z, layout))
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
