//! `live-htap`: a durable `LiveTable` (WAL on, background sealer on,
//! compaction on) under two concurrent streams — one writer appending
//! fixed-size batches at a constant row rate (open loop), one client
//! issuing planted-candidate queries through `QueryService::submit_live`
//! (closed loop). At the end the table is closed and reopened with
//! `LiveTable::open`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastmatch_core::histsim::HistSimConfig;
use fastmatch_data::datasets::{ord_departure_shape, DatasetId};
use fastmatch_engine::exec::{Executor, FastMatchExec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::result::MatchOutput;
use fastmatch_engine::service::{QueryOutcome, QueryService, ServiceConfig, SnapshotRequest};
use fastmatch_store::backend::{MemBackend, StorageBackend};
use fastmatch_store::block::BlockLayout;
use fastmatch_store::live::{LiveTable, LiveTableConfig, Snapshot};
use fastmatch_store::table::Table;

use crate::common::{
    ms, query_metrics, service_metrics, setup_metrics, Args, Overhead, PerQuery, ReplayTotals,
    RunTotals,
};
use crate::replay::{replay, Mode};
use crate::report::{Metrics, Outcome};
use crate::schedule::{AppendSchedule, QueryOrder};
use crate::setup::{ground_truth, paper_config, peak_rss_mb, repeat_setup, SetupTimers};
use crate::summary::{median, percentile, Ratio, Summary};
use crate::trace::Tracer;

/// Rows appended during set-up, before the window opens.
pub const PRELOAD_ROWS: usize = 300_000;

/// The writer's constant rate, rows per second.
pub const APPEND_ROWS_PER_S: usize = 10_000;

/// Rows per appended batch.
pub const BATCH_ROWS: usize = 1_000;

/// Compaction fan-in.
pub const COMPACT_FAN_IN: usize = 4;

/// Service worker threads.
pub const WORKERS: usize = 2;

/// Set-up repetitions.
const SETUP_REPS: usize = 5;

/// Reopens measured after the close; `recovery_s` is their median.
const REOPENS: usize = 3;

/// Matches per query.
const K: usize = 10;

/// A planted-candidate query: a generator shape as target, and the
/// candidates the generator planted closest to it.
struct Planted {
    id: &'static str,
    target: Vec<f64>,
    planted: Vec<u32>,
}

/// FLIGHTS-q1's ORD departure-hour shape over DepartureHour, whose
/// planted matches are candidates 0..=9. (FLIGHTS-q2's ATW shape is not
/// used: its nearest candidate, ATW itself, is below σ, and an output
/// that keeps it satisfies the guarantees yet differs from the planted
/// set, so the planted-set check would not be a correctness check.)
fn planted_queries() -> Vec<Planted> {
    let mut target = ord_departure_shape();
    let total: f64 = target.iter().sum();
    target.iter_mut().for_each(|v| *v /= total);
    vec![Planted {
        id: "live-ord",
        target,
        planted: (0..=9).collect(),
    }]
}

/// Query mix weights over [`planted_queries`].
const WEIGHTS: [usize; 1] = [1];

fn table_config(dir: &Path) -> LiveTableConfig {
    LiveTableConfig::default()
        .with_segment_dir(dir)
        .with_wal(true)
        .with_background_sealer(true)
        .with_compaction(COMPACT_FAN_IN)
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_workers(WORKERS)
}

fn query_config() -> HistSimConfig {
    paper_config(K, PRELOAD_ROWS)
}

fn matched(out: &MatchOutput) -> Vec<u32> {
    let mut ids = out.candidate_ids();
    ids.sort_unstable();
    ids
}

/// Columns `rows` of `table` as one append batch.
fn slice(table: &Table, rows: std::ops::Range<usize>) -> Vec<Vec<u32>> {
    (0..table.schema().len())
        .map(|a| table.column(a)[rows.clone()].to_vec())
        .collect()
}

struct LiveData {
    /// Every row the run appends: preload, then the writer's batches.
    rows: Table,
    live: LiveTable,
    dir: PathBuf,
    z: usize,
    x: usize,
}

fn wait_sealed(live: &LiveTable) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(30) {
        let s = live.stats();
        if s.persisted_segments + s.seal_errors >= s.frozen_segments {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn build(dir: PathBuf, total_rows: usize, data_seed: u64, t: &mut SetupTimers) -> LiveData {
    let rows = t
        .generate
        .time(|| DatasetId::Flights.generate(total_rows, data_seed));
    let z = rows.attr_index("Origin").expect("FLIGHTS has Origin");
    let x = rows
        .attr_index("DepartureHour")
        .expect("FLIGHTS has DepartureHour");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the segment directory");
    let live = LiveTable::new(rows.schema().clone(), table_config(&dir)).expect("live table");
    t.persist.time(|| {
        for start in (0..PRELOAD_ROWS).step_by(10_000) {
            let end = (start + 10_000).min(PRELOAD_ROWS);
            live.append_batch(&slice(&rows, start..end))
                .expect("preload append");
        }
        wait_sealed(&live);
    });
    // The planted sets must be the exact top-k of the preloaded rows.
    let pre = Table::new(rows.schema().clone(), slice(&rows, 0..PRELOAD_ROWS));
    let cfg = query_config();
    for q in planted_queries() {
        let truth = t.truth.time(|| ground_truth(&pre, z, x, &q.target));
        let mut top = truth.true_topk(K, cfg.sigma);
        top.sort_unstable();
        assert_eq!(
            top, q.planted,
            "{}: planted set is not the exact top-k",
            q.id
        );
    }
    let probe = Table::new(rows.schema().clone(), slice(&rows, 0..1));
    QueryService::serve(
        &MemBackend::new(&probe, BlockLayout::new(1, 1)),
        service_config(),
        |_| (),
    );
    LiveData {
        rows,
        live,
        dir,
        z,
        x,
    }
}

/// One writer batch: latency from its due time, time inside
/// `append_batch`, and whether it was acknowledged.
struct Append {
    late_us: f64,
    busy_ns: u64,
    ok: bool,
}

fn writer(
    live: &LiveTable,
    batches: &[Vec<Vec<u32>>],
    due: &[Instant],
    done: &AtomicBool,
) -> Vec<Append> {
    let mut out = Vec::with_capacity(batches.len());
    for (batch, &at) in batches.iter().zip(due) {
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t0 = Instant::now();
        let ok = live.append_batch(batch).is_ok();
        let t1 = Instant::now();
        out.push(Append {
            late_us: (t1 - at).as_secs_f64() * 1e6,
            busy_ns: (t1 - t0).as_nanos() as u64,
            ok,
        });
    }
    done.store(true, Ordering::Release);
    out
}

/// The fixed query compared across the close and reopen.
fn fixed_query(snap: &Snapshot, z: usize, x: usize) -> Option<Vec<u32>> {
    let q = &planted_queries()[0];
    let job = QueryJob::from_snapshot(snap, z, x, q.target.clone(), query_config());
    FastMatchExec::default()
        .run(&job, 7)
        .ok()
        .map(|o| matched(&o))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs the workload.
pub fn run(args: &Args) -> (Outcome, Metrics) {
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let interval = Duration::from_secs_f64(BATCH_ROWS as f64 / APPEND_ROWS_PER_S as f64);
    let n_batches = (args.seconds.as_secs_f64() * APPEND_ROWS_PER_S as f64 / BATCH_ROWS as f64)
        .round()
        .max(1.0) as usize;
    let schedule = AppendSchedule::new(args.seed, n_batches, interval);
    let total_rows = PRELOAD_ROWS + n_batches * BATCH_ROWS;
    let work = args.work_dir();
    let mut rep = 0usize;
    let (data, timers, walls) = repeat_setup(SETUP_REPS, |t| {
        rep += 1;
        build(
            work.join(format!("setup{rep}")),
            total_rows,
            schedule.data_seed,
            t,
        )
    });
    setup_metrics(&mut m, &timers, &walls);
    let LiveData {
        rows,
        live,
        dir,
        z,
        x,
    } = data;

    let batches: Vec<Vec<Vec<u32>>> = (0..n_batches)
        .map(|i| {
            let s = PRELOAD_ROWS + i * BATCH_ROWS;
            slice(&rows, s..s + BATCH_ROWS)
        })
        .collect();
    let queries = planted_queries();
    let cfg = query_config();
    let mut order = QueryOrder::new(args.seed, &WEIGHTS);
    let mut per_query = PerQuery::default();
    let mut lat_ms = Vec::new();
    let mut read_frac = Vec::new();
    let mut totals = RunTotals::default();
    let mut replays = ReplayTotals::default();
    let mut tracer = Tracer::new();
    let mut snapshot_us = Vec::new();
    let mut submit_us = Vec::new();
    let mut pinned_peak = 0u64;
    let mut rejected = 0u64;
    let mut overhead = Overhead::default();
    let done = AtomicBool::new(false);
    let probe = Table::new(rows.schema().clone(), slice(&rows, 0..1));
    let probe_backend = MemBackend::new(&probe, BlockLayout::new(1, 1));
    let mode = Mode::Sharded {
        shards: service_config().shards_per_query,
        batch_blocks: service_config().quantum_blocks,
        window: 256,
    };

    let (appends, sched, window) = QueryService::serve(&probe_backend, service_config(), |svc| {
        std::thread::scope(|s| {
            let t0 = Instant::now();
            let due: Vec<Instant> = schedule.due.iter().map(|d| t0 + *d).collect();
            let (live, batches, done) = (&live, &batches, &done);
            let w = s.spawn(move || writer(live, batches, &due, done));
            let mut qid = 0u64;
            while !done.load(Ordering::Acquire) {
                let issue = order.next().expect("endless order");
                let q = &queries[issue.query];
                let req =
                    SnapshotRequest::new(z, x, q.target.clone(), cfg.clone()).with_seed(issue.seed);
                let traced = args.trace && qid % 2 == 1;
                let start = Instant::now();
                let admitted = if traced {
                    let snap = Arc::new(live.snapshot());
                    let taken = Instant::now();
                    snapshot_us.push((taken - start).as_secs_f64() * 1e6);
                    let h = svc.submit_snapshot(Arc::clone(&snap), req);
                    submit_us.push(taken.elapsed().as_secs_f64() * 1e6);
                    pinned_peak = pinned_peak.max(live.stats().pinned_snapshot_bytes);
                    h.map(|h| (snap, h))
                } else {
                    svc.submit_live(live, req)
                };
                let result = admitted.map(|(snap, h)| (snap, h.wait()));
                let end = Instant::now();
                match result {
                    Ok((snap, QueryOutcome::Finished(out))) => {
                        let ok = matched(&out) == q.planted;
                        outcome.op(ok);
                        if !ok {
                            println!(
                                "# wrong matched set: {} seed {}: {:?}",
                                q.id,
                                issue.seed,
                                matched(&out)
                            );
                            per_query.failed(q.id);
                        }
                        let l = ms(end - start);
                        let frac =
                            out.stats.io.blocks_read as f64 / snap.layout().num_blocks() as f64;
                        lat_ms.push(l);
                        read_frac.push(frac);
                        per_query.record(q.id, l, frac, out.stats.exact_finish);
                        totals.add(&out);
                        if args.trace {
                            overhead.record(q.id, traced, l);
                        }
                        if traced {
                            tracer.span("engine.service.query", None, Some(qid), start, end);
                            let job =
                                QueryJob::from_snapshot(&snap, z, x, q.target.clone(), cfg.clone());
                            match replay(&job, issue.seed, mode, &mut tracer, qid) {
                                Ok(r) => replays.add(&r),
                                Err(e) => {
                                    outcome.check(false, format!("replay of {} failed: {e}", q.id))
                                }
                            }
                        }
                    }
                    Ok((_, other)) => {
                        println!("# query did not finish: {}: {other:?}", q.id);
                        outcome.op(false);
                        per_query.failed(q.id);
                    }
                    Err(e) => {
                        println!("# query rejected: {}: {e}", q.id);
                        rejected += 1;
                        outcome.op(false);
                        per_query.failed(q.id);
                    }
                }
                qid += 1;
            }
            let appends = w.join().expect("writer thread");
            (appends, svc.sched_stats(), t0.elapsed())
        })
    });

    per_query.print();
    query_metrics(&mut m, &lat_ms, &read_frac, window);
    let acked = PRELOAD_ROWS + appends.iter().filter(|a| a.ok).count() * BATCH_ROWS;
    for a in &appends {
        outcome.op(a.ok);
    }
    let append_us: Vec<f64> = appends.iter().map(|a| a.late_us).collect();
    let append_busy_ms = appends.iter().map(|a| a.busy_ns).sum::<u64>() as f64 / 1e6;
    println!(
        "# writer: {} batches of {BATCH_ROWS} rows at {APPEND_ROWS_PER_S} rows/s; {}",
        appends.len(),
        Summary::of(&append_us).line("append latency from due time", "us")
    );

    // Close, measure what is on disk, reopen.
    let stats = live.stats();
    let before = fixed_query(&live.snapshot(), z, x);
    let schema = live.schema().clone();
    drop(live);
    let disk = dir_bytes(&dir);
    let mut open_s = Vec::new();
    let mut recovered_rows = 0u64;
    for i in 0..REOPENS {
        let t0 = Instant::now();
        let reopened = LiveTable::open(schema.clone(), table_config(&dir));
        open_s.push(t0.elapsed().as_secs_f64());
        let Ok(table) = reopened else {
            outcome.check(false, "LiveTable::open failed");
            break;
        };
        if i == 0 {
            recovered_rows = table.stats().recovered_rows;
            let snap = table.snapshot();
            outcome.check(
                snap.n_rows() == acked,
                format!(
                    "reopened table has {} rows, {acked} were acknowledged",
                    snap.n_rows()
                ),
            );
            let same_rows = snap.to_table().is_ok_and(|t| {
                (0..t.schema().len())
                    .all(|a| t.column(a) == &rows.column(a)[..acked.min(t.n_rows())])
            });
            outcome.check(same_rows, "reopened rows differ from the acknowledged rows");
            let after = fixed_query(&snap, z, x);
            outcome.check(
                before.is_some() && before == after,
                format!("fixed query before close {before:?} != after reopen {after:?}"),
            );
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    let recovery_s = median(&open_s).unwrap_or(0.0);
    let disk_per_row = disk as f64 / acked as f64;
    let errors = stats.seal_errors + stats.wal_errors + stats.compact_errors;
    println!(
        "# live-htap end-to-end (printed, not gated): append_p50_us {:.3}, append_p90_us {:.3} (n = {}), recovery_s {recovery_s:.6} (median of {} opens: {open_s:?}), disk_bytes_per_row {disk_per_row:.4} ({disk} bytes / {acked} rows)",
        median(&append_us).unwrap_or(0.0),
        percentile(&append_us, 90).unwrap_or(0.0),
        append_us.len(),
        open_s.len()
    );
    println!(
        "# store.live: persisted segments {}, compactions {}, wal syncs/records {}, errors {errors}, recovered rows {recovered_rows}",
        stats.persisted_segments,
        stats.compactions,
        Ratio::new(stats.wal_syncs as f64, stats.wal_records as f64)
    );
    outcome.check(errors == 0, format!("live-table errors: {errors}"));
    m.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        totals.set_metrics(&mut m);
        replays.set_metrics(&mut m);
        m.set("store.live.append.busy_ms", append_busy_ms);
        m.set(
            "store.live.append.p50_us",
            median(&append_us).unwrap_or(0.0),
        );
        m.set(
            "store.live.append.p90_us",
            percentile(&append_us, 90).unwrap_or(0.0),
        );
        m.set(
            "store.live.snapshot.p50_us",
            median(&snapshot_us).unwrap_or(0.0),
        );
        m.set(
            "store.live.wal_syncs_per_record",
            Ratio::new(stats.wal_syncs as f64, stats.wal_records as f64).value(),
        );
        m.set(
            "store.live.persisted_segments",
            stats.persisted_segments as f64,
        );
        m.set("store.live.compactions", stats.compactions as f64);
        m.set("store.live.pinned_snapshot_bytes_peak", pinned_peak as f64);
        m.set("store.live.errors", errors as f64);
        m.set("store.live.open_ms", recovery_s * 1e3);
        m.set("store.live.recovered_rows", recovered_rows as f64);
        m.set("store.live.disk_bytes_per_row", disk_per_row);
        service_metrics(&mut m, &submit_us, rejected, sched, &totals);
        println!(
            "# {}; pinned snapshot bytes peak {pinned_peak}",
            Summary::of(&snapshot_us).line("snapshot", "us")
        );
        overhead.set_metric(
            &mut m,
            "traced vs untraced queries, alternating; replays run between them",
        );
        args.write_trace(&tracer);
    }
    (outcome, m)
}
