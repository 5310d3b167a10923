//! Pieces every workload uses: arguments, the per-query records, and the
//! reduction of traced replays to per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use fastmatch_engine::result::MatchOutput;
use fastmatch_engine::service::SchedStats;

use crate::replay::{Layers, Replay};
use crate::report::Metrics;
use crate::setup::SetupTimers;
use crate::summary::{median, percentile, Ratio, Summary};
use crate::trace::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Where this run writes its files (inside the checkout it runs in).
    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from("perfbench").join("out")
    }

    /// A scratch directory private to this process.
    pub fn work_dir(&self) -> PathBuf {
        self.out_dir()
            .join(format!("work-{}-{}", self.workload, std::process::id()))
    }

    /// Writes the run's spans.
    pub fn write_trace(&self, tracer: &Tracer) {
        let path = self
            .out_dir()
            .join(format!("trace-{}-seed{}.json", self.workload, self.seed));
        println!("# self time by span name (calls, ms):");
        for (name, (calls, self_ns)) in tracer.self_by_name() {
            println!("#   {name}: {calls} calls, {:.3} ms", self_ns as f64 / 1e6);
        }
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("# spans: could not write {}: {e}", path.display()),
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-query-type latencies, for the Table 4 style print.
#[derive(Debug, Default)]
pub struct PerQuery {
    rows: BTreeMap<String, QueryRow>,
}

#[derive(Debug, Default)]
struct QueryRow {
    lat_ms: Vec<f64>,
    read_frac: Vec<f64>,
    exact: u64,
    failed: u64,
    scan_ms: Option<f64>,
}

impl PerQuery {
    /// Records one completed query.
    pub fn record(&mut self, id: &str, lat_ms: f64, read_frac: f64, exact: bool) {
        let r = self.rows.entry(id.to_string()).or_default();
        r.lat_ms.push(lat_ms);
        r.read_frac.push(read_frac);
        r.exact += exact as u64;
    }

    /// Records one failed query.
    pub fn failed(&mut self, id: &str) {
        self.rows.entry(id.to_string()).or_default().failed += 1;
    }

    /// Records the `Scan` baseline of a query.
    pub fn scan(&mut self, id: &str, scan_ms: f64) {
        self.rows.entry(id.to_string()).or_default().scan_ms = Some(scan_ms);
    }

    /// Prints one row per query: n, median latency, the I/O ratio, and
    /// the wall speedup over one `Scan` pass (printed, never gated).
    pub fn print(&self) {
        println!("# per query: id | n | failed | median ms | blocks read frac | I/O ratio | exact finishes | scan ms | speedup_vs_scan");
        for (id, r) in &self.rows {
            let med = median(&r.lat_ms).unwrap_or(f64::NAN);
            let frac = median(&r.read_frac).unwrap_or(f64::NAN);
            let scan = r.scan_ms.map_or("-".to_string(), |s| format!("{s:.3}"));
            let speed = r
                .scan_ms
                .map_or("-".to_string(), |s| format!("{:.3}x", s / med));
            println!(
                "#   {id} | {} | {} | {med:.3} | {frac:.4} | {:.2}x | {} | {scan} | {speed}",
                r.lat_ms.len(),
                r.failed,
                1.0 / frac,
                Ratio::new(r.exact as f64, r.lat_ms.len() as f64),
            );
        }
    }
}

/// Sets the query latency, throughput and I/O end-to-end metrics.
pub fn query_metrics(m: &mut Metrics, lat_ms: &[f64], read_frac: &[f64], window: Duration) {
    println!("# {}", Summary::of(lat_ms).line("query latency", "ms"));
    let p50 = median(lat_ms).unwrap_or(0.0);
    let p90 = percentile(lat_ms, 90).unwrap_or_else(|e| {
        println!("# query_p90_ms refused: {e}");
        0.0
    });
    let n = lat_ms.len() as f64;
    m.set("query_p50_ms", p50);
    m.set("query_p90_ms", p90);
    m.set("queries_per_s", n / window.as_secs_f64());
    m.set(
        "blocks_read_frac",
        read_frac.iter().sum::<f64>() / n.max(1.0),
    );
    println!(
        "# query_p50_ms {p50:.4} (n = {}), query_p90_ms {p90:.4} (n = {}), queries_per_s {:.4} ({} in {:.3} s)",
        lat_ms.len(),
        lat_ms.len(),
        n / window.as_secs_f64(),
        lat_ms.len(),
        window.as_secs_f64()
    );
}

/// Totals of executed queries' own statistics (`RunStats`).
#[derive(Debug, Default)]
pub struct RunTotals {
    /// Queries folded in.
    pub n: u64,
    blocks_read: u64,
    blocks_skipped: u64,
    tuples_read: u64,
    samples: u64,
    rounds: u64,
    exact: u64,
    pages_hit: u64,
    pages_miss: u64,
}

impl RunTotals {
    /// Folds one query's statistics in.
    pub fn add(&mut self, out: &MatchOutput) {
        let s = &out.stats;
        self.n += 1;
        self.blocks_read += s.io.blocks_read;
        self.blocks_skipped += s.io.blocks_skipped;
        self.tuples_read += s.io.tuples_read;
        self.samples += s.samples;
        self.rounds += s.stage2_rounds as u64;
        self.exact += s.exact_finish as u64;
        self.pages_hit += s.io.pages_cache_hit;
        self.pages_miss += s.io.pages_cache_miss;
    }

    /// Blocks read by every query folded in.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Sets the `store.io.*`, `core.samples`, `core.stage2_rounds` and
    /// `engine.exec.exact_finishes` per-query metrics.
    pub fn set_metrics(&self, m: &mut Metrics) {
        let n = self.n.max(1) as f64;
        m.set("store.io.blocks_read", self.blocks_read as f64 / n);
        m.set("store.io.blocks_skipped", self.blocks_skipped as f64 / n);
        m.set("store.io.tuples_read", self.tuples_read as f64 / n);
        m.set("core.samples", self.samples as f64 / n);
        m.set("core.stage2_rounds", self.rounds as f64 / n);
        m.set("engine.exec.exact_finishes", self.exact as f64 / n);
        println!(
            "# store.io per query over {} queries: blocks read {:.1}, skipped {:.1}, tuples {:.1}; attributed cache pages hit/miss {}/{}; exact finishes {}",
            self.n,
            self.blocks_read as f64 / n,
            self.blocks_skipped as f64 / n,
            self.tuples_read as f64 / n,
            self.pages_hit,
            self.pages_miss,
            Ratio::new(self.exact as f64, self.n as f64)
        );
    }
}

/// Replays folded across queries.
#[derive(Debug, Default)]
pub struct ReplayTotals {
    /// Replays folded in.
    pub n: u64,
    layers: Layers,
    merge_cells: u64,
    tuples: u64,
    useful_tuples: u64,
    late_blocks: u64,
    late_useful_blocks: u64,
}

impl ReplayTotals {
    /// Folds one replay in.
    pub fn add(&mut self, r: &Replay) {
        self.n += 1;
        self.layers.absorb(&r.layers);
        self.merge_cells += r.merge_cells;
        self.tuples += r.tuples;
        self.useful_tuples += r.useful_tuples;
        self.late_blocks += r.late_blocks;
        self.late_useful_blocks += r.late_useful_blocks;
    }

    /// Sets the `core.*`, `engine.progress.*` and `engine.policy.*`
    /// per-layer metrics.
    pub fn set_metrics(&self, m: &mut Metrics) {
        let n = self.n.max(1) as f64;
        let l = &self.layers;
        m.set("core.accumulate.busy_ms", l.accumulate.busy_ms() / n);
        m.set("core.merge.busy_ms", l.merge.busy_ms() / n);
        m.set("core.merge.cells", self.merge_cells as f64 / n);
        m.set("core.clear.busy_ms", l.clear.busy_ms() / n);
        m.set("core.phase.busy_ms", l.phase.busy_ms() / n);
        m.set("core.phase.calls", l.phase.calls as f64 / n);
        let useful = Ratio::new(self.useful_tuples as f64, self.tuples as f64);
        m.set("core.useful_sample_ratio", useful.value());
        m.set("engine.progress.busy_ms", l.progress.busy_ms() / n);
        m.set("engine.policy.busy_ms", l.policy.busy_ms() / n);
        let read_useful = Ratio::new(self.late_useful_blocks as f64, self.late_blocks as f64);
        m.set("engine.policy.read_useful_ratio", read_useful.value());
        println!(
            "# replay over {} queries, busy ms per query by layer:",
            self.n
        );
        for (name, t) in l.named() {
            println!(
                "#   {name}: {:.4} ms/query, {:.1} calls/query",
                t.busy_ms() / n,
                t.calls as f64 / n
            );
        }
        println!(
            "# core.useful_sample_ratio {useful}, engine.policy.read_useful_ratio {read_useful}"
        );
    }
}

/// Sets `setup_s` (the median of the set-up walls) and the set-up layer
/// metrics of the last repetition.
pub fn setup_metrics(m: &mut Metrics, timers: &SetupTimers, walls: &[Duration]) {
    let setup: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
    println!("# setup walls (s): {setup:?}");
    m.set("setup_s", median(&setup).unwrap_or(0.0));
    m.set("data.generate_ms", timers.generate.busy_ms());
    m.set("store.persist_ms", timers.persist.busy_ms());
    m.set("store.bitmap.build_ms", timers.bitmap.busy_ms());
    m.set("core.truth_ms", timers.truth.busy_ms());
}

/// Sets the `engine.service.*` metrics from the client's submit timings,
/// its rejections, the scheduler's counters and the finished queries.
pub fn service_metrics(
    m: &mut Metrics,
    submit_us: &[f64],
    rejected: u64,
    sched: SchedStats,
    totals: &RunTotals,
) {
    let n = totals.n.max(1) as f64;
    let per_quantum = Ratio::new(totals.blocks_read() as f64, sched.quanta as f64);
    m.set("engine.service.submit_us", median(submit_us).unwrap_or(0.0));
    m.set("engine.service.rejected", rejected as f64);
    m.set("engine.service.quanta", sched.quanta as f64 / n);
    m.set("engine.service.steals", sched.steals as f64 / n);
    m.set("engine.service.blocks_per_quantum", per_quantum.value());
    println!(
        "# engine.service over {} queries: quanta {}, steals {}, blocks per quantum {per_quantum}, rejected {rejected}; {}",
        totals.n,
        sched.quanta,
        sched.steals,
        Summary::of(submit_us).line("submit", "us")
    );
}

/// Traced against untraced latency of the same query types.
#[derive(Debug, Default)]
pub struct Overhead(BTreeMap<String, (Vec<f64>, Vec<f64>)>);

impl Overhead {
    /// Records one query's latency.
    pub fn record(&mut self, id: &str, traced: bool, lat_ms: f64) {
        let e = self.0.entry(id.to_string()).or_default();
        if traced { &mut e.0 } else { &mut e.1 }.push(lat_ms);
    }

    /// Sets `trace.overhead_pct`: the median over query types of the
    /// ratio of traced to untraced median latency, as a percentage.
    pub fn set_metric(&self, m: &mut Metrics, how: &str) {
        let ratios: Vec<f64> = self
            .0
            .values()
            .filter_map(|(traced, plain)| Some(median(traced)? / median(plain)?))
            .collect();
        let pct = median(&ratios).map_or(0.0, |r| (r - 1.0) * 100.0);
        m.set("trace.overhead_pct", pct);
        println!("# tracing overhead: {pct:.3}% ({how})");
    }
}
