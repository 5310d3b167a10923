//! `serve-file`: one closed-loop client cycling the FLIGHTS q1–q4 mix
//! through `QueryService::serve` (2 workers) over a persisted FLIGHTS
//! block file whose cache is well below one query's working set.
//!
//! An open loop of Poisson arrivals at half of capacity was tried first.
//! On the two-core virtual machine the benchmark was built on, open-loop
//! latency moved with the host's scheduling far more than with the
//! program: the p50 quartile spread over seeds reached 0.31–0.56 at a
//! quarter and at half of capacity, above the largest bound a metric may
//! have (0.25). A closed loop measures the same layers without
//! amplifying that noise.

use std::path::Path;
use std::time::{Duration, Instant};

use fastmatch_data::datasets::DatasetId;
use fastmatch_data::queries::{all_queries, QuerySpec};
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::service::{QueryOutcome, QueryRequest, QueryService, ServiceConfig};
use fastmatch_store::backend::StorageBackend;
use fastmatch_store::bitmap::BitmapIndex;
use fastmatch_store::file::{write_table, FileBackend};

use crate::common::{
    ms, query_metrics, service_metrics, setup_metrics, Args, Overhead, PerQuery, ReplayTotals,
    RunTotals,
};
use crate::replay::{replay, Mode};
use crate::report::{Metrics, Outcome};
use crate::schedule::QueryOrder;
use crate::setup::{bitmap, peak_rss_mb, repeat_setup, Prepared, SetupTimers, DATA_SEED};
use crate::summary::{median, percentile, Ratio, Summary};
use crate::timed::TimedBackend;
use crate::trace::Tracer;

/// FLIGHTS rows persisted (1,000 blocks per attribute).
pub const ROWS: usize = 150_000;

/// Block-cache capacity in pages: below the page working set of every
/// query in the mix (each reads the whole 1,000-block file, 2,000 pages).
pub const CACHE_PAGES: usize = 128;

/// Service worker threads.
pub const WORKERS: usize = 2;

/// Query mix weights over FLIGHTS q1..q4, per cycle of the query order.
pub const WEIGHTS: [usize; 4] = [1, 1, 1, 1];

/// Fewest completed queries an untraced run measures (p90 needs 100).
const MIN_QUERIES: usize = 100;

/// Set-up repetitions: one set-up takes tens of milliseconds, so more
/// of them steady the median.
const SETUP_REPS: usize = 9;

/// Traced runs replay at most this many queries after the window.
const MAX_REPLAYS: usize = 24;

struct ServeData {
    backend: FileBackend,
    bitmap: BitmapIndex,
    queries: Vec<Prepared>,
}

fn flights_mix() -> Vec<QuerySpec> {
    all_queries()
        .into_iter()
        .filter(|q| q.dataset == DatasetId::Flights)
        .collect()
}

fn build(path: &Path, t: &mut SetupTimers) -> ServeData {
    let table = t
        .generate
        .time(|| DatasetId::Flights.generate(ROWS, DATA_SEED));
    t.persist
        .time(|| {
            write_table(
                path,
                &table,
                fastmatch_store::block::DEFAULT_TUPLES_PER_BLOCK,
            )
        })
        .expect("persisting the FLIGHTS block file");
    let backend = FileBackend::open(path)
        .expect("opening the FLIGHTS block file")
        .with_cache_blocks(CACHE_PAGES);
    let queries: Vec<Prepared> = flights_mix()
        .iter()
        .map(|s| Prepared::new(s, &table, t))
        .collect();
    let z = queries[0].z;
    assert!(
        queries.iter().all(|q| q.z == z),
        "the FLIGHTS mix shares Z = Origin"
    );
    let bitmap = bitmap(&table, z, &backend.layout(), t);
    // An empty session: worker-pool start and stop are part of set-up.
    QueryService::serve(&backend, service_config(), |_| ());
    ServeData {
        backend,
        bitmap,
        queries,
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_workers(WORKERS)
}

/// One issued query and how it ended.
struct Sent {
    query: usize,
    seed: u64,
    traced: bool,
    submit_us: f64,
    lat: Duration,
    outcome: Result<QueryOutcome, String>,
}

/// Runs the workload.
pub fn run(args: &Args) -> (Outcome, Metrics) {
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let dir = args.work_dir();
    std::fs::create_dir_all(&dir).expect("creating the work directory");
    let path = dir.join("flights.fmb");
    let (data, timers, walls) = repeat_setup(SETUP_REPS, |t| build(&path, t));
    setup_metrics(&mut m, &timers, &walls);

    let timed = TimedBackend::new(&data.backend);
    // Untraced runs serve from the backend itself.
    let served: &dyn StorageBackend = if args.trace { &timed } else { &data.backend };
    let mut order = QueryOrder::new(args.seed, &WEIGHTS);
    let min_queries = if args.trace { 0 } else { MIN_QUERIES };
    let cache_start = data.backend.cache_stats();
    let (sent, sched, window) = QueryService::serve(served, service_config(), |svc| {
        let t0 = Instant::now();
        let mut sent: Vec<Sent> = Vec::new();
        while !(order.at_cycle_start() && t0.elapsed() >= args.seconds && sent.len() >= min_queries)
        {
            let issue = order.next().expect("endless order");
            // Traced runs time reads for every other query; one query is
            // in flight at a time, so each read belongs to that query.
            let traced = args.trace && sent.len() % 2 == 1;
            timed.set_enabled(traced);
            let q = &data.queries[issue.query];
            let start = Instant::now();
            let handle = svc.submit(
                QueryRequest::new(&data.bitmap, q.z, q.x, q.target.clone(), q.cfg.clone())
                    .with_seed(issue.seed),
            );
            let submit_us = start.elapsed().as_secs_f64() * 1e6;
            let outcome = handle.map(|h| h.wait()).map_err(|e| e.to_string());
            sent.push(Sent {
                query: issue.query,
                seed: issue.seed,
                traced,
                submit_us,
                lat: start.elapsed(),
                outcome,
            });
        }
        (sent, svc.sched_stats(), t0.elapsed())
    });
    let cache_end = data.backend.cache_stats();
    timed.set_enabled(false);

    let nb = data.backend.layout().num_blocks();
    let mut per_query = PerQuery::default();
    let mut lat_ms = Vec::new();
    let mut read_frac = Vec::new();
    let mut totals = RunTotals::default();
    let mut traced_done = 0u64;
    let mut submit_us = Vec::new();
    let mut rejected = 0u64;
    let mut overhead = Overhead::default();
    for s in &sent {
        let p = &data.queries[s.query];
        let id = p.spec.id;
        match &s.outcome {
            Ok(QueryOutcome::Finished(out)) => {
                let ok = p.guarantees_hold(out);
                outcome.op(ok);
                if !ok {
                    println!("# guarantee violated: {id} seed {}", s.seed);
                    per_query.failed(id);
                }
                let l = ms(s.lat);
                let frac = out.stats.io.blocks_read as f64 / nb as f64;
                lat_ms.push(l);
                read_frac.push(frac);
                per_query.record(id, l, frac, out.stats.exact_finish);
                totals.add(out);
                if s.traced {
                    traced_done += 1;
                    submit_us.push(s.submit_us);
                }
                if args.trace {
                    overhead.record(id, s.traced, l);
                }
            }
            Ok(other) => {
                println!("# query did not finish: {id}: {other:?}");
                outcome.op(false);
                per_query.failed(id);
            }
            Err(e) => {
                println!("# query rejected: {id}: {e}");
                rejected += 1;
                outcome.op(false);
                per_query.failed(id);
            }
        }
    }
    println!(
        "# closed loop, 1 client, {} queries in {:.3} s",
        lat_ms.len(),
        window.as_secs_f64()
    );
    per_query.print();
    query_metrics(&mut m, &lat_ms, &read_frac, window);
    m.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let n = traced_done.max(1) as f64;
        totals.set_metrics(&mut m);
        let st = &timed.stats;
        let calls = st.calls.load(std::sync::atomic::Ordering::Relaxed);
        let busy = st.busy_ns.load(std::sync::atomic::Ordering::Relaxed);
        let lat_us: Vec<f64> = st
            .latencies_ns
            .lock()
            .map(|l| l.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default();
        m.set("store.read.calls", calls as f64 / n);
        m.set("store.read.busy_ms", busy as f64 / 1e6 / n);
        m.set("store.read.p50_us", median(&lat_us).unwrap_or(0.0));
        m.set("store.read.p90_us", percentile(&lat_us, 90).unwrap_or(0.0));
        m.set(
            "store.read.errors",
            st.errors.load(std::sync::atomic::Ordering::Relaxed) as f64,
        );
        println!(
            "# {}",
            Summary::of(&lat_us).line("store.read call latency", "us")
        );
        let c = cache_end.since(cache_start);
        let hit = Ratio::new(c.hits as f64, (c.hits + c.misses) as f64);
        let prefetch = Ratio::new(c.prefetched_hits as f64, c.pages_prefetched as f64);
        let all = totals.n.max(1) as f64;
        m.set("store.cache.hit_ratio", hit.value());
        m.set("store.cache.evictions", c.evictions as f64 / all);
        m.set("store.cache.pressure", c.pressure as f64 / all);
        m.set("store.cache.prefetch_useful_ratio", prefetch.value());
        println!(
            "# store.cache over {} queries: hit ratio {hit}, evictions {}, pressure {}, prefetch useful {prefetch}",
            totals.n, c.evictions, c.pressure
        );
        service_metrics(&mut m, &submit_us, rejected, sched, &totals);

        // Replays over the raw file backend, after the window.
        let mut tracer = Tracer::new();
        let mut replays = ReplayTotals::default();
        let mode = Mode::Sharded {
            shards: service_config().shards_per_query,
            batch_blocks: service_config().quantum_blocks,
            window: 256,
        };
        for (i, s) in sent
            .iter()
            .filter(|s| s.traced)
            .take(MAX_REPLAYS)
            .enumerate()
        {
            let q = &data.queries[s.query];
            let job = QueryJob::from_backend(
                &data.backend,
                &data.bitmap,
                q.z,
                q.x,
                q.target.clone(),
                q.cfg.clone(),
            );
            match replay(&job, s.seed, mode, &mut tracer, i as u64) {
                Ok(r) => replays.add(&r),
                Err(e) => outcome.check(false, format!("replay of {} failed: {e}", q.spec.id)),
            }
        }
        replays.set_metrics(&mut m);
        overhead.set_metric(
            &mut m,
            "queries with the read wrapper timing against those without, alternating, per query type",
        );
        args.write_trace(&tracer);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (outcome, m)
}
