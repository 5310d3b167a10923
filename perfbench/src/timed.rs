//! A storage backend that forwards every trait method to the backend it
//! wraps and times each read — the benchmark's view of the `store.file`
//! / `store.io` read layer, taken from outside the program.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fastmatch_store::backend::{PageOrigin, StorageBackend};
use fastmatch_store::block::BlockLayout;
use fastmatch_store::error::Result;
use fastmatch_store::schema::Schema;

/// Read counters collected by a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Read calls (one per `read_block_into` or `read_block_pair_into`).
    pub calls: AtomicU64,
    /// Summed read time.
    pub busy_ns: AtomicU64,
    /// Reads that returned an error.
    pub errors: AtomicU64,
    /// Per-call latency, ns.
    pub latencies_ns: Mutex<Vec<u32>>,
}

/// Forwards to `inner`; times reads while enabled.
#[derive(Debug)]
pub struct TimedBackend<'a> {
    inner: &'a dyn StorageBackend,
    enabled: AtomicBool,
    /// What the wrapper has measured.
    pub stats: ReadStats,
}

impl<'a> TimedBackend<'a> {
    /// Wraps `inner`, timing off.
    pub fn new(inner: &'a dyn StorageBackend) -> Self {
        TimedBackend {
            inner,
            enabled: AtomicBool::new(false),
            stats: ReadStats::default(),
        }
    }

    /// Turns timing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn timed<R>(&self, f: impl FnOnce() -> Result<R>) -> Result<R> {
        if !self.enabled.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.busy_ns.fetch_add(ns, Ordering::Relaxed);
        if r.is_err() {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Ok(mut l) = self.stats.latencies_ns.lock() {
            l.push(ns.min(u32::MAX as u64) as u32);
        }
        r
    }
}

impl StorageBackend for TimedBackend<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn layout(&self) -> BlockLayout {
        self.inner.layout()
    }

    fn read_block_into(&self, b: usize, attr: usize, out: &mut Vec<u32>) -> Result<PageOrigin> {
        self.timed(|| self.inner.read_block_into(b, attr, out))
    }

    fn read_block_pair_into(
        &self,
        b: usize,
        z_attr: usize,
        x_attr: usize,
        zs: &mut Vec<u32>,
        xs: &mut Vec<u32>,
    ) -> Result<[PageOrigin; 2]> {
        self.timed(|| self.inner.read_block_pair_into(b, z_attr, x_attr, zs, xs))
    }

    fn prefetch(&self, blocks: Range<usize>) {
        self.inner.prefetch(blocks)
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn cardinality(&self, attr: usize) -> u32 {
        self.inner.cardinality(attr)
    }
}
