//! `paper-mem` and `parallel-mem`: one closed-loop client cycling the
//! nine Table 3 queries over in-memory tables at the paper-default 6M
//! rows, through `FastMatchExec` (lookahead 1024) or
//! `ParallelMatchExec::with_shards(2)`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fastmatch_data::datasets::DatasetId;
use fastmatch_data::queries::all_queries;
use fastmatch_engine::exec::{Executor, FastMatchExec, ParallelMatchExec, ScanExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::block::BlockLayout;
use fastmatch_store::table::Table;

use crate::common::{
    ms, query_metrics, setup_metrics, Args, Overhead, PerQuery, ReplayTotals, RunTotals,
};
use crate::replay::{replay, Mode};
use crate::report::{Metrics, Outcome};
use crate::schedule::QueryOrder;
use crate::setup::{bitmap, peak_rss_mb, repeat_setup, Prepared, SetupTimers, DATA_SEED};
use crate::trace::Tracer;

/// Rows per dataset: the paper-default scale of the repository's
/// experiment harnesses.
pub const ROWS: usize = 6_000_000;

/// Set-up repetitions (one set-up generates 18M rows).
const SETUP_REPS: usize = 3;

/// Fewest completed queries an untraced run measures (p90 needs 100).
const MIN_QUERIES: usize = 100;

/// Issues of a query per cycle. The slowest query (FLIGHTS-q4, which
/// reads the whole table) is issued three times per cycle of eleven, so
/// the mixture's p90 lies inside its latency distribution and the p50
/// inside the sixth-fastest query's, never on a boundary between two
/// query types.
fn weight(id: &str) -> usize {
    if id == "flights-q4" {
        3
    } else {
        1
    }
}

/// Which executor the closed loop drives.
#[derive(Debug, Clone, Copy)]
pub enum Exec {
    /// `FastMatchExec::default()`.
    FastMatch,
    /// `ParallelMatchExec::with_shards(2)`.
    Parallel2,
}

struct Dataset {
    table: Table,
    layout: BlockLayout,
    /// Bitmap per candidate attribute.
    bitmaps: BTreeMap<usize, BitmapIndex>,
}

struct MemData {
    datasets: Vec<(DatasetId, Dataset)>,
    queries: Vec<(usize, Prepared)>,
}

impl MemData {
    fn build(t: &mut SetupTimers) -> MemData {
        let specs = all_queries();
        let mut datasets: Vec<(DatasetId, Dataset)> = Vec::new();
        let mut queries = Vec::new();
        for spec in &specs {
            let di = match datasets.iter().position(|(id, _)| *id == spec.dataset) {
                Some(i) => i,
                None => {
                    let table = t.generate.time(|| spec.dataset.generate(ROWS, DATA_SEED));
                    let layout = BlockLayout::with_default_block(table.n_rows());
                    datasets.push((
                        spec.dataset,
                        Dataset {
                            table,
                            layout,
                            bitmaps: BTreeMap::new(),
                        },
                    ));
                    datasets.len() - 1
                }
            };
            let d = &mut datasets[di].1;
            let p = Prepared::new(spec, &d.table, t);
            if !d.bitmaps.contains_key(&p.z) {
                let bm = bitmap(&d.table, p.z, &d.layout, t);
                d.bitmaps.insert(p.z, bm);
            }
            queries.push((di, p));
        }
        MemData { datasets, queries }
    }

    fn job(&self, q: usize) -> (QueryJob<'_>, &Prepared, usize) {
        let (di, p) = &self.queries[q];
        let d = &self.datasets[*di].1;
        let job = QueryJob::new(
            &d.table,
            d.layout,
            &d.bitmaps[&p.z],
            p.z,
            p.x,
            p.target.clone(),
            p.cfg.clone(),
        );
        (job, p, d.layout.num_blocks())
    }
}

/// Runs the workload.
pub fn run(args: &Args, exec_kind: Exec) -> (Outcome, Metrics) {
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let (data, timers, walls) = repeat_setup(SETUP_REPS, MemData::build);
    setup_metrics(&mut m, &timers, &walls);

    let (exec, mode): (Box<dyn Executor>, Mode) = match exec_kind {
        Exec::FastMatch => (
            Box::new(FastMatchExec::default()),
            Mode::Sequential { lookahead: 1024 },
        ),
        Exec::Parallel2 => {
            let pm = ParallelMatchExec::with_shards(2);
            let mode = Mode::Sharded {
                shards: pm.shards,
                batch_blocks: pm.batch_blocks,
                window: 256,
            };
            (Box::new(pm), mode)
        }
    };

    let weights: Vec<usize> = data
        .queries
        .iter()
        .map(|(_, p)| weight(p.spec.id))
        .collect();
    let mut order = QueryOrder::new(args.seed, &weights);
    let mut per_query = PerQuery::default();
    let mut lat_ms = Vec::new();
    let mut read_frac = Vec::new();
    let mut totals = RunTotals::default();
    let mut replays = ReplayTotals::default();
    let mut tracer = Tracer::new();
    let mut exec_ms_traced = 0.0f64;
    let mut unattributed_ms = 0.0f64;
    let mut overhead = Overhead::default();
    let min_queries = if args.trace { 0 } else { MIN_QUERIES };

    let t_start = Instant::now();
    let mut exec_time = Duration::ZERO;
    let mut qid = 0u64;
    while !(order.at_cycle_start()
        && t_start.elapsed() >= args.seconds
        && lat_ms.len() >= min_queries)
    {
        let issue = order.next().expect("endless order");
        let (job, p, nb) = data.job(issue.query);
        let traced = args.trace && qid % 2 == 1;
        let t0 = Instant::now();
        let res = exec.run(&job, issue.seed);
        let t1 = Instant::now();
        exec_time += t1 - t0;
        let id = p.spec.id;
        match res {
            Ok(out) => {
                let ok = p.guarantees_hold(&out);
                outcome.op(ok);
                if !ok {
                    println!("# guarantee violated: {id} seed {}", issue.seed);
                    per_query.failed(id);
                }
                let l = ms(t1 - t0);
                let frac = out.stats.io.blocks_read as f64 / nb as f64;
                lat_ms.push(l);
                read_frac.push(frac);
                per_query.record(id, l, frac, out.stats.exact_finish);
                totals.add(&out);
                if args.trace {
                    overhead.record(id, traced, l);
                }
                if traced {
                    tracer.span("engine.exec.run", None, Some(qid), t0, t1);
                    match replay(&job, issue.seed, mode, &mut tracer, qid) {
                        Ok(r) => {
                            exec_ms_traced += l;
                            unattributed_ms += l - r.layers.attributed_ns() as f64 / 1e6;
                            replays.add(&r);
                        }
                        Err(e) => outcome.check(false, format!("replay of {id} failed: {e}")),
                    }
                }
            }
            Err(e) => {
                println!("# query failed: {id}: {e}");
                outcome.op(false);
                per_query.failed(id);
            }
        }
        qid += 1;
    }
    let window = t_start.elapsed();
    println!(
        "# closed loop, 1 client, {} queries in {:.3} s ({:.3} s inside the executor)",
        lat_ms.len(),
        window.as_secs_f64(),
        exec_time.as_secs_f64()
    );

    // One Scan pass per query supplies the speedup baseline.
    for q in 0..data.queries.len() {
        let (job, p, _) = data.job(q);
        let t0 = Instant::now();
        if ScanExec.run(&job, args.seed).is_ok() {
            per_query.scan(p.spec.id, ms(t0.elapsed()));
        }
    }
    per_query.print();

    query_metrics(&mut m, &lat_ms, &read_frac, window);
    m.set("peak_rss_mb", peak_rss_mb());
    totals.set_metrics(&mut m);
    if args.trace {
        replays.set_metrics(&mut m);
        let n = replays.n.max(1) as f64;
        m.set("engine.exec.run_ms", exec_ms_traced / n);
        m.set("engine.exec.unattributed_ms", unattributed_ms / n);
        println!(
            "# engine.exec.run_ms {:.4} per query, engine.exec.unattributed_ms {:.4} per query (executor wall minus the replay's summed layer self times, over {} traced queries)",
            exec_ms_traced / n,
            unattributed_ms / n,
            replays.n
        );
        overhead.set_metric(
            &mut m,
            "traced vs untraced executor latency, same query types, alternating queries",
        );
        args.write_trace(&tracer);
    }
    (outcome, m)
}
