//! Service internals: per-query state, shard tasks and the scheduler.
//!
//! One admitted query is decomposed into `shards_per_query` *shard
//! tasks*, each owning a disjoint contiguous block range of the shared
//! backend (a [`ShardedBlockReader`]) plus its own visited set and pass
//! cursor. Tasks are the scheduler's unit of work: each worker pops
//! FIFO from its own ready queue (stealing from a sibling's queue when
//! its own runs dry), runs one bounded ingestion quantum, and requeues
//! the task at its home queue's tail — so concurrent queries interleave
//! at quantum granularity over one pool instead of each spawning its
//! own threads. Stealing is safe because a task is self-contained: it
//! owns its reader/cursor state outright and every cross-task effect
//! (merge, demand publication) is serialized by the query's engine
//! mutex, so *which* worker runs a quantum is immaterial.
//!
//! A task that completes a full pass over its shard without finding a
//! readable block under the query's current demand snapshot *parks*:
//! it leaves the ready queue and is only re-enqueued when the query's
//! demand epoch changes (a sibling shard merged, or the stuck valve
//! republished). Parking is what keeps fruitless shards from burning
//! pool capacity that other queries could use.
//!
//! Lock order (strict, deadlock-free): a query's engine mutex may be
//! taken before the scheduler's queue mutex, never after; the handle's
//! outcome mutex ([`super::handle::QueryShared`]) is taken with neither
//! held.
//! `fastmatch-lint`'s `lock_order` check extracts this graph from the
//! source on every CI push (`crates/lint/LOCK_ORDER.dot`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use fastmatch_core::error::CoreError;
use fastmatch_store::io::{IoStats, ShardedBlockReader};

use crate::exec::driver::Driver;
use crate::query::QueryJob;
use crate::service::handle::{QueryProgress, QueryShared};
use crate::shared::SharedDemand;

/// Why a query stopped making progress (set once, under the engine
/// mutex; the *last retiring shard* converts it into the published
/// [`super::QueryOutcome`]).
#[derive(Debug)]
pub(crate) enum Verdict {
    /// HistSim terminated (guarantees met, or exact after exhaustion).
    Completed,
    /// Cancelled by the client or by service shutdown.
    Cancelled,
    /// The deadline expired before termination.
    DeadlineExpired,
    /// The run failed.
    Failed(CoreError),
}

/// The mutable heart of one query: the HistSim driver plus aggregated
/// per-query accounting. Guarded by the query's engine mutex
/// (`QueryShared::engine`).
#[derive(Debug)]
pub(crate) struct EngineState {
    /// The statistics engine; taken (`None`) by the last retiring shard.
    pub driver: Option<Driver>,
    /// The snapshot [`Self::progress`] returns once `driver` is taken:
    /// the last retiring shard stores it just before taking the driver.
    pub terminal: QueryProgress,
    /// I/O attributed to this query so far (flushed from shard readers
    /// at every quantum boundary).
    pub io: IoStats,
    /// Shards not yet retired.
    pub live_shards: usize,
    /// Consecutive all-parked valve rounds without a merge in between.
    pub stuck_rounds: u32,
    /// Terminal reason, once known.
    pub verdict: Option<Verdict>,
}

impl EngineState {
    /// The engine of a freshly admitted query with `live_shards` shard
    /// tasks; a driver already done at admission is `Completed`.
    pub fn new(driver: Driver, live_shards: usize) -> Self {
        EngineState {
            terminal: QueryProgress::of(&driver, IoStats::default()),
            verdict: driver.hs.is_done().then_some(Verdict::Completed),
            driver: Some(driver),
            io: IoStats::default(),
            live_shards,
            stuck_rounds: 0,
        }
    }

    /// The query's progress: built from the driver while it runs, the
    /// stored terminal snapshot afterwards.
    pub fn progress(&self) -> QueryProgress {
        match &self.driver {
            Some(d) => QueryProgress::of(d, self.io),
            None => self.terminal.clone(),
        }
    }

    /// Records the terminal reason if none is set yet (first writer
    /// wins: a cancel racing a completion must not overwrite it).
    pub fn set_verdict(&mut self, verdict: Verdict) {
        if self.verdict.is_none() {
            self.verdict = Some(verdict);
        }
    }
}

/// Everything the workers share about one admitted query.
#[derive(Debug)]
pub(crate) struct QueryState<'a> {
    /// Service-assigned id.
    pub id: u64,
    /// The prepared query (holds the backend + bitmap references).
    pub job: QueryJob<'a>,
    /// Demand snapshot published to all of this query's shard tasks —
    /// the same protocol every HistSim executor follows.
    pub demand: SharedDemand,
    /// Handle-side shared state (`'static`), including the query's
    /// engine mutex.
    pub shared: Arc<QueryShared>,
    /// Absolute deadline, if the request set one.
    pub deadline: Option<Instant>,
    /// Mirror of `EngineState::live_shards` readable without the engine
    /// mutex — the scheduler's all-parked check runs under the *queue*
    /// mutex, which by the lock order must not take the engine mutex.
    pub live_shards_hint: AtomicUsize,
}

impl QueryState<'_> {
    /// Whether the query is past its deadline.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

/// One schedulable unit: a shard of one query, with its multi-pass walk
/// state. Owned by exactly one of {ready queue, parked list, a worker}
/// at any time, so none of its fields need locks.
#[derive(Debug)]
pub(crate) struct ShardTask<'a> {
    /// The query this shard belongs to.
    pub query: Arc<QueryState<'a>>,
    /// Reader over this shard's contiguous block range, with per-shard
    /// [`IoStats`].
    pub reader: ShardedBlockReader<'a>,
    /// Per-local-block visited flags (blocks are never re-read).
    pub visited: Vec<bool>,
    /// Number of visited blocks.
    pub visited_count: usize,
    /// Seed-derived rotation offset: local block `(start + i) % n` is
    /// the `i`-th in pass order, so repeated runs draw different samples.
    pub start: usize,
    /// Position in rotated pass order (`0..n`); `0` means a new pass is
    /// about to begin.
    pub cursor: usize,
    /// Demand epoch observed when the current pass started.
    pub pass_epoch: u64,
    /// Whether the current pass has read at least one block.
    pub read_this_pass: bool,
    /// The part of `reader.stats()` already charged to the query.
    pub flushed: IoStats,
    /// Home worker queue (round-robin at admission). The task prefers
    /// its home worker — quantum-to-quantum cache affinity — but any
    /// idle worker may steal it.
    pub home: usize,
    /// Smoothed observed ingestion cost of this shard, ns per block
    /// (`0.0` until the first timed quantum). Feeds adaptive quantum
    /// sizing; per-*shard* because cost is dominated by where the
    /// shard's blocks live (cache-hot memory vs cold file pages).
    pub ewma_ns_per_block: f64,
}

impl<'a> ShardTask<'a> {
    /// A task at the start of its first pass over `reader`'s range,
    /// rotated by `start`.
    pub fn new(
        query: Arc<QueryState<'a>>,
        reader: ShardedBlockReader<'a>,
        start: usize,
        home: usize,
    ) -> Self {
        let n_local = reader.num_blocks();
        ShardTask {
            query,
            reader,
            visited: vec![false; n_local],
            visited_count: 0,
            start,
            cursor: 0,
            pass_epoch: 0,
            read_this_pass: false,
            flushed: IoStats::default(),
            home,
            ewma_ns_per_block: 0.0,
        }
    }

    /// Flushes the reader stats accrued since the last flush into the
    /// query's aggregate (caller holds the engine mutex).
    pub fn flush_io(&mut self, eng: &mut EngineState) {
        let stats = self.reader.stats();
        eng.io.merge(stats.since(self.flushed));
        self.flushed = stats;
    }
}

/// The order in which worker `own` of `n` scans the per-worker ready
/// queues: always its own queue first, then — only when stealing is
/// enabled or shutdown is draining — every sibling queue round-robin
/// from its right neighbor.
///
/// Extracted as a pure function because this scan order *is* the
/// scheduler's liveness contract, shared verbatim with
/// `fastmatch-check`'s `admission_steal` model: during shutdown every
/// worker must serve every queue (or a task re-enqueued after its home
/// worker exited is stranded forever — invariant
/// `shutdown-drains-all-queues`), and with stealing disabled a wakeup
/// must reach the home worker specifically, which is why
/// `Scheduler::enqueue` uses `notify_all` (invariant
/// `no-lost-wakeup`; the model shows the `notify_one` interleaving that
/// deadlocks, documented in DESIGN.md).
pub fn queue_scan_order(
    own: usize,
    n: usize,
    stealing: bool,
    shutdown: bool,
) -> impl Iterator<Item = usize> {
    let own = own.min(n.saturating_sub(1));
    std::iter::once(own).chain(
        (1..n)
            .filter(move |_| stealing || shutdown)
            .map(move |off| (own + off) % n),
    )
}

/// Whether a query with `live` still-unretired shards, `parked` of them
/// currently parked, has its *entire* live set parked — the condition
/// that must trigger the stuck valve. Shared with the `admission_steal`
/// and `park_exit` models; the `live == 0` case is "query already
/// fully retired", where there is nobody left to wake.
pub fn all_shards_parked(parked: usize, live: usize) -> bool {
    live > 0 && parked >= live
}

/// Whether the admission CAS loop may take another slot: `active`
/// admitted-and-not-terminal queries against the configured bound.
/// Shared with the `admission_steal` model's invariant
/// `admission-bounded` — the bound must hold on every interleaving of
/// concurrent submits, which is why the caller retries on CAS failure
/// instead of load-then-increment.
pub fn admission_has_capacity(active: usize, limit: usize) -> bool {
    active < limit
}

/// Scheduler-level counters, exposed through
/// [`super::QueryService::sched_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Scheduling quanta executed across all workers and queries.
    pub quanta: u64,
    /// Tasks a worker popped from another worker's queue because its
    /// own had run dry. Zero when work-stealing is disabled.
    pub steals: u64,
}

#[derive(Debug)]
struct SchedState<'a> {
    /// One FIFO ready queue per worker; tasks land on their home queue
    /// and idle workers steal from others when theirs runs dry.
    queues: Vec<VecDeque<ShardTask<'a>>>,
    /// Parked tasks. The epoch whose fruitless pass parked a task is not
    /// kept: `wake_query` wakes a query's parked tasks on any epoch bump,
    /// and [`Scheduler::park`] decides park-vs-requeue under the lock.
    parked: Vec<ShardTask<'a>>,
    shutdown: bool,
}

impl<'a> SchedState<'a> {
    /// Appends `task` at its home queue's tail.
    fn push_home(&mut self, task: ShardTask<'a>) {
        let home = task.home.min(self.queues.len() - 1);
        self.queues[home].push_back(task);
    }

    /// How many of query `id`'s tasks are parked.
    fn parked_of(&self, id: u64) -> usize {
        self.parked.iter().filter(|t| t.query.id == id).count()
    }
}

/// The shared scheduler: per-worker FIFO ready queues (with optional
/// work-stealing) and one parked list for the whole service.
#[derive(Debug)]
pub(crate) struct Scheduler<'a> {
    state: Mutex<SchedState<'a>>,
    cv: Condvar,
    stealing: bool,
    quanta: AtomicU64,
    steals: AtomicU64,
}

impl<'a> Scheduler<'a> {
    pub fn new(workers: usize, stealing: bool) -> Self {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                parked: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            stealing,
            quanta: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.lock().unwrap().shutdown
    }

    /// Counts one executed scheduling quantum.
    pub fn note_quantum(&self) {
        self.quanta.fetch_add(1, Ordering::Relaxed);
    }

    /// Current scheduler counters.
    pub fn stats(&self) -> SchedStats {
        SchedStats {
            quanta: self.quanta.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Appends a runnable task at its home queue's tail (FIFO ⇒ quanta
    /// of different queries round-robin within a queue).
    pub fn enqueue(&self, task: ShardTask<'a>) {
        let mut s = self.state.lock().unwrap();
        s.push_home(task);
        drop(s);
        // notify_all, not notify_one: with per-worker queues a single
        // wakeup can land on a worker that (stealing disabled) will not
        // serve this queue and would strand the task.
        self.cv.notify_all();
    }

    /// Blocks for worker `worker`'s next runnable task — from its own
    /// queue first, else (when stealing is enabled) from the first
    /// non-empty queue scanning round-robin from its right neighbor.
    /// `None` once shutdown is requested *and* every queue this worker
    /// may serve has drained (parked tasks are moved to ready by
    /// [`Self::shutdown`], so nothing is stranded).
    pub fn pop(&self, worker: usize) -> Option<ShardTask<'a>> {
        let mut s = self.state.lock().unwrap();
        loop {
            let n = s.queues.len();
            let own = worker.min(n - 1);
            // During shutdown every worker serves every queue even with
            // stealing disabled: a task re-enqueued late could land on
            // a queue whose worker already exited and would otherwise
            // be stranded unretired. (The scan order is the extracted
            // [`queue_scan_order`] the model checks.)
            for q in queue_scan_order(own, n, self.stealing, s.shutdown) {
                if let Some(task) = s.queues[q].pop_front() {
                    if q != own && !s.shutdown {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(task);
                }
            }
            if s.shutdown {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Parks a task whose last full pass found nothing readable under
    /// demand epoch `pass_epoch`. If the query's epoch has already moved
    /// on, the task is re-enqueued instead (the wake it would wait for
    /// already happened — checking under the queue lock closes the
    /// lost-wakeup window). Returns `true` when, after parking, every
    /// still-live shard of the query is parked — the caller must then
    /// run the stuck valve.
    pub fn park(&self, task: ShardTask<'a>, pass_epoch: u64) -> bool {
        let query = Arc::clone(&task.query);
        let mut s = self.state.lock().unwrap();
        if s.shutdown || query.demand.epoch() != pass_epoch {
            s.push_home(task);
            drop(s);
            self.cv.notify_all();
            return false;
        }
        s.parked.push(task);
        all_shards_parked(
            s.parked_of(query.id),
            query.live_shards_hint.load(Ordering::Relaxed),
        )
    }

    /// Whether every one of the query's `live` still-unretired shards is
    /// currently parked. Called after a shard retires: the live set
    /// shrinking can make an existing parked set become "all of them",
    /// with no parking transition left to notice it (the historical
    /// anonymous-tally deadlock).
    pub fn all_parked(&self, query_id: u64, live: usize) -> bool {
        if live == 0 {
            return false;
        }
        let s = self.state.lock().unwrap();
        all_shards_parked(s.parked_of(query_id), live)
    }

    /// Moves every parked task of `query_id` back to the ready queue
    /// (called after a demand republication for that query — any epoch
    /// bump, merge or valve, wakes the whole query).
    pub fn wake_query(&self, query_id: u64) {
        let mut s = self.state.lock().unwrap();
        let mut woken = 0usize;
        let mut i = 0;
        while i < s.parked.len() {
            if s.parked[i].query.id == query_id {
                let task = s.parked.swap_remove(i);
                s.push_home(task);
                woken += 1;
            } else {
                i += 1;
            }
        }
        drop(s);
        if woken > 0 {
            self.cv.notify_all();
        }
    }

    /// Requests shutdown: every parked task is made runnable (so workers
    /// retire it as cancelled) and all workers are woken; `pop` returns
    /// `None` once the queues it may serve drain.
    pub fn shutdown(&self) {
        let mut s = self.state.lock().unwrap();
        s.shutdown = true;
        while let Some(task) = s.parked.pop() {
            s.push_home(task);
        }
        drop(s);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_shards_parked_needs_every_live_shard() {
        // Nothing live: the query is fully retired, nobody to wake.
        assert!(!all_shards_parked(0, 0));
        assert!(!all_shards_parked(1, 0));
        // Partly parked: a running shard will merge or park itself.
        assert!(!all_shards_parked(0, 2));
        assert!(!all_shards_parked(1, 2));
        // Fully parked: the stuck valve must run.
        assert!(all_shards_parked(1, 1));
        assert!(all_shards_parked(2, 2));
        // More parked than live (a retire raced the count): still all.
        assert!(all_shards_parked(3, 2));
    }
}
