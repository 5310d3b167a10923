//! A traced replay of one query: the same public functions the engine's
//! executors call (`HistSim`, `HistAccumulator`, `ConsumptionTracker`,
//! `mark_lookahead`, `SharedDemand`, `BlockReader`), in the same order,
//! each call timed from here.
//!
//! The replay runs on one thread. [`Mode::Sequential`] mirrors FastMatch:
//! lookahead windows marked with Algorithm 3, then per block
//! `accumulate` → `merge_ref` → `block_read` → `clear`, with demand
//! republished every 16 reads. [`Mode::Sharded`] mirrors ParallelMatch
//! and the query service: shard walkers fill per-block accumulators,
//! fold them into a batch with `merge_from`, and the batch is merged
//! with `HistSim::merge`. Block choices may differ slightly from a
//! threaded run (demand is never stale here); the layer costs are the
//! same functions on the same data.

use fastmatch_core::error::{CoreError, Result};
use fastmatch_core::histsim::{HistAccumulator, HistSim, PhaseKind};
use fastmatch_engine::policy::mark_lookahead;
use fastmatch_engine::progress::ConsumptionTracker;
use fastmatch_engine::query::QueryJob;
use fastmatch_engine::shared::{DemandMode, SharedDemand};
use fastmatch_store::io::ShardedBlockReader;

use crate::trace::{LayerTimer, SpanId, Tracer};

/// How the replay walks the blocks.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// FastMatch: one walker, lookahead windows, per-block `merge_ref`.
    Sequential {
        /// Lookahead window in blocks.
        lookahead: usize,
    },
    /// ParallelMatch / service: shard walkers, per-batch `merge`.
    Sharded {
        /// Shards walked round-robin.
        shards: usize,
        /// Blocks per merged batch.
        batch_blocks: usize,
        /// AnyActive marking window in blocks.
        window: usize,
    },
}

/// Blocks between demand republications on the sequential path (the
/// FastMatch executor's constant).
const PUBLISH_EVERY: u64 = 16;

/// Per-layer timers of one replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `HistSim::new`, `ConsumptionTracker::new`, never-present marking.
    pub setup: LayerTimer,
    /// `BlockReader::try_block_slices` (block read, cache, checksum).
    pub read: LayerTimer,
    /// `HistAccumulator::accumulate`.
    pub accumulate: LayerTimer,
    /// `HistSim::merge_ref` / `HistSim::merge` / `HistAccumulator::merge_from`.
    pub merge: LayerTimer,
    /// `HistAccumulator::clear` and batch-accumulator replacement.
    pub clear: LayerTimer,
    /// `ConsumptionTracker::block_read`.
    pub progress: LayerTimer,
    /// `HistSim::complete_io_phase`.
    pub phase: LayerTimer,
    /// `mark_lookahead`.
    pub policy: LayerTimer,
    /// `SharedDemand::publish` and `active_candidates`.
    pub publish: LayerTimer,
    /// `QueryJob::prefetch` hints.
    pub prefetch: LayerTimer,
}

impl Layers {
    /// (span name, timer) for every layer.
    pub fn named(&self) -> [(&'static str, &LayerTimer); 10] {
        [
            ("core.setup", &self.setup),
            ("store.io.read", &self.read),
            ("core.accumulate", &self.accumulate),
            ("core.merge", &self.merge),
            ("core.clear", &self.clear),
            ("engine.progress", &self.progress),
            ("core.phase", &self.phase),
            ("engine.policy", &self.policy),
            ("engine.shared.publish", &self.publish),
            ("store.prefetch", &self.prefetch),
        ]
    }

    /// Summed time of every layer.
    pub fn attributed_ns(&self) -> u64 {
        self.named().iter().map(|(_, t)| t.busy_ns).sum()
    }

    /// Adds another replay's timers into these.
    pub fn absorb(&mut self, other: &Layers) {
        let mine = [
            &mut self.setup,
            &mut self.read,
            &mut self.accumulate,
            &mut self.merge,
            &mut self.clear,
            &mut self.progress,
            &mut self.phase,
            &mut self.policy,
            &mut self.publish,
            &mut self.prefetch,
        ];
        for (m, (_, o)) in mine.into_iter().zip(other.named()) {
            m.absorb(o);
        }
    }
}

/// What one replay measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Per-layer timers.
    pub layers: Layers,
    /// Histogram cells touched by merges (touched candidates × |V_X|).
    pub merge_cells: u64,
    /// Tuples ingested.
    pub tuples: u64,
    /// Tuples whose candidate still had demand when ingested.
    pub useful_tuples: u64,
    /// Stage-2/3 blocks read.
    pub late_blocks: u64,
    /// Stage-2/3 blocks read that held a candidate with demand.
    pub late_useful_blocks: u64,
}

/// The state machine plus its bookkeeping, shared by both walk modes.
struct Engine<'j> {
    hs: HistSim,
    tracker: ConsumptionTracker,
    shared: SharedDemand,
    job: &'j QueryJob<'j>,
    r: Replay,
}

impl<'j> Engine<'j> {
    fn new(job: &'j QueryJob<'j>) -> Result<Engine<'j>> {
        let mut r = Replay::default();
        let (hs, tracker) = r.layers.setup.time(|| -> Result<_> {
            let mut hs = HistSim::new(
                job.cfg.clone(),
                job.num_candidates(),
                job.num_groups(),
                job.n_rows() as u64,
                &job.target,
            )?;
            let tracker = ConsumptionTracker::new(&job.bitmap);
            let absent: Vec<u32> = tracker.never_present().collect();
            for c in absent {
                hs.mark_exact(c);
            }
            Ok((hs, tracker))
        })?;
        let shared = SharedDemand::new(job.num_candidates());
        let mut e = Engine {
            hs,
            tracker,
            shared,
            job,
            r,
        };
        e.advance_and_publish()?;
        Ok(e)
    }

    fn advance(&mut self) -> Result<()> {
        while self.hs.io_satisfied() && !self.hs.is_done() {
            let hs = &mut self.hs;
            self.r.layers.phase.time(|| hs.complete_io_phase(false))?;
        }
        Ok(())
    }

    fn advance_and_publish(&mut self) -> Result<()> {
        self.advance()?;
        let (hs, shared) = (&self.hs, &self.shared);
        self.r.layers.publish.time(|| match hs.phase() {
            PhaseKind::Stage1 => shared.publish(DemandMode::ReadAll, None),
            PhaseKind::Stage2 | PhaseKind::Stage3 => {
                shared.publish(DemandMode::AnyActive, Some(hs.remaining_slice()))
            }
            PhaseKind::Done => shared.publish(DemandMode::Stop, None),
        });
        Ok(())
    }

    fn finish_exhausted(&mut self) -> Result<()> {
        self.advance()?;
        if !self.hs.is_done() {
            let hs = &mut self.hs;
            self.r.layers.phase.time(|| hs.complete_io_phase(true))?;
        }
        Ok(())
    }

    /// Fills `marks` for the window starting at global block `start`
    /// (no wrap) from the published demand.
    fn mark(&mut self, start: usize, marks: &mut [bool]) {
        match self.shared.mode() {
            DemandMode::ReadAll => marks.fill(true),
            DemandMode::Stop => marks.fill(false),
            DemandMode::AnyActive => {
                marks.fill(false);
                let shared = &self.shared;
                let active = self.r.layers.publish.time(|| shared.active_candidates());
                let bitmap = &self.job.bitmap;
                self.r
                    .layers
                    .policy
                    .time(|| mark_lookahead(bitmap, &active, start, marks));
            }
        }
    }

    /// Usefulness bookkeeping for one accumulated block, before merge.
    fn note_block(&mut self, acc: &HistAccumulator, tuples: usize) {
        self.r.tuples += tuples as u64;
        if self.hs.phase() == PhaseKind::Stage1 {
            self.r.useful_tuples += tuples as u64;
            return;
        }
        self.r.late_blocks += 1;
        let mut useful = 0u64;
        for &c in acc.touched() {
            if self.hs.is_active(c) {
                useful += acc.n(c as usize);
            }
        }
        self.r.useful_tuples += useful;
        if useful > 0 {
            self.r.late_useful_blocks += 1;
        }
    }
}

/// Replays `job` under `mode`, recording one `replay` span with a folded
/// leaf per layer into `tracer`.
pub fn replay(
    job: &QueryJob<'_>,
    seed: u64,
    mode: Mode,
    tracer: &mut Tracer,
    query: u64,
) -> Result<Replay> {
    let root = tracer.open("replay", None, Some(query));
    let r = match mode {
        Mode::Sequential { lookahead } => sequential(job, seed, lookahead),
        Mode::Sharded {
            shards,
            batch_blocks,
            window,
        } => sharded(job, seed, shards, batch_blocks, window),
    };
    tracer.close(root);
    if let Ok(r) = &r {
        fold_layers(tracer, root, query, &r.layers);
    }
    r
}

fn fold_layers(tracer: &mut Tracer, root: SpanId, query: u64, layers: &Layers) {
    for (name, t) in layers.named() {
        tracer.leaf(name, Some(root), Some(query), t);
    }
}

fn read_timed<'r>(
    timer: &mut LayerTimer,
    f: impl FnOnce() -> fastmatch_store::error::Result<(&'r [u32], &'r [u32])>,
) -> Result<(&'r [u32], &'r [u32])> {
    timer.time(f).map_err(|e| CoreError::Storage(e.to_string()))
}

fn sequential(job: &QueryJob<'_>, seed: u64, lookahead: usize) -> Result<Replay> {
    let mut e = Engine::new(job)?;
    let mut reader = job.reader();
    let nb = job.layout.num_blocks();
    let ng = job.num_groups() as u64;
    let start = if nb == 0 {
        0
    } else {
        (seed % nb as u64) as usize
    };
    let mut scratch = HistAccumulator::new(job.num_candidates(), job.num_groups());
    let mut visited = vec![false; nb];
    let mut visited_count = 0usize;
    let mut marks = vec![false; lookahead];
    let mut reads_since_publish = 0u64;
    let mut idle_passes = 0u32;

    while !e.hs.is_done() {
        let mut pass_read = false;
        let mut off = 0usize;
        while off < nb && !e.hs.is_done() {
            let win = lookahead.min(nb - off);
            let s0 = (start + off) % nb;
            let first_len = win.min(nb - s0);
            e.mark(s0, &mut marks[..first_len]);
            if first_len < win {
                e.mark(0, &mut marks[first_len..win]);
            }
            for (i, &marked) in marks[..win].iter().enumerate() {
                let b = (start + off + i) % nb;
                if visited[b] {
                    continue;
                }
                if !marked {
                    reader.skip_block(b);
                    continue;
                }
                visited[b] = true;
                visited_count += 1;
                pass_read = true;
                let (zs, xs) = read_timed(&mut e.r.layers.read, || {
                    reader.try_block_slices(b, job.z_attr, job.x_attr)
                })?;
                e.r.layers.accumulate.time(|| scratch.accumulate(zs, xs));
                e.note_block(&scratch, zs.len());
                e.r.merge_cells += scratch.touched().len() as u64 * ng;
                let hs = &mut e.hs;
                e.r.layers.merge.time(|| hs.merge_ref(&scratch));
                let tracker = &mut e.tracker;
                e.r.layers
                    .progress
                    .time(|| tracker.block_read(b, scratch.touched(), |c| hs.mark_exact(c)));
                e.r.layers.clear.time(|| scratch.clear());
                reads_since_publish += 1;
                if e.hs.io_satisfied() || reads_since_publish >= PUBLISH_EVERY {
                    e.advance_and_publish()?;
                    reads_since_publish = 0;
                }
                if e.hs.is_done() {
                    break;
                }
            }
            off += win;
        }
        e.advance_and_publish()?;
        if e.hs.is_done() {
            break;
        }
        if visited_count == nb {
            e.finish_exhausted()?;
            break;
        }
        idle_passes = if pass_read { 0 } else { idle_passes + 1 };
        if idle_passes >= 2 {
            return Err(CoreError::PhaseViolation(
                "replay: no readable blocks for outstanding demand".into(),
            ));
        }
    }
    Ok(e.r)
}

/// One shard walker of the sharded replay.
struct Walker<'a> {
    reader: ShardedBlockReader<'a>,
    lo: usize,
    visited: Vec<bool>,
    visited_count: usize,
    start: usize,
    /// Offset into the current pass (0..n_local).
    cursor: usize,
    read_this_pass: bool,
    parked_epoch: Option<u64>,
    exhausted: bool,
    batch: HistAccumulator,
    block_acc: HistAccumulator,
    touches: Vec<(usize, Vec<u32>)>,
}

fn sharded(
    job: &QueryJob<'_>,
    seed: u64,
    shards: usize,
    batch_blocks: usize,
    window: usize,
) -> Result<Replay> {
    let mut e = Engine::new(job)?;
    let nb = job.layout.num_blocks();
    let (nc, ng) = (job.num_candidates(), job.num_groups());
    let shards = shards.min(nb).max(1);
    let reader = job.reader();
    let mut walkers: Vec<Walker<'_>> = (0..shards)
        .map(|w| {
            let r = reader.shard(w, shards);
            let range = r.blocks();
            let n_local = range.len();
            let start = if n_local == 0 {
                0
            } else {
                (seed.wrapping_add(w as u64).wrapping_mul(0x9e37_79b9) % n_local as u64) as usize
            };
            Walker {
                lo: range.start,
                visited: vec![false; n_local],
                visited_count: 0,
                start,
                cursor: 0,
                read_this_pass: false,
                parked_epoch: None,
                exhausted: n_local == 0,
                batch: HistAccumulator::new(nc, ng),
                block_acc: HistAccumulator::new(nc, ng),
                touches: Vec::new(),
                reader: r,
            }
        })
        .collect();
    let mut marks = vec![false; window];
    let mut stuck_rounds = 0u32;

    while !e.hs.is_done() {
        if walkers.iter().all(|w| w.exhausted) {
            e.finish_exhausted()?;
            break;
        }
        let mut progressed = false;
        for w in walkers.iter_mut() {
            if w.exhausted || e.hs.is_done() {
                continue;
            }
            if w.parked_epoch == Some(e.shared.epoch()) {
                continue;
            }
            w.parked_epoch = None;
            progressed = true;
            walk_window(&mut e, w, &mut marks, window, batch_blocks)?;
        }
        if !progressed {
            // Every live walker is parked under the current demand:
            // republish (as the executors' stuck valve does) and give up
            // only if that changes nothing for many rounds.
            e.advance_and_publish()?;
            stuck_rounds += 1;
            if stuck_rounds > 16 {
                return Err(CoreError::PhaseViolation(
                    "replay: every shard parked with demand outstanding".into(),
                ));
            }
            for w in walkers.iter_mut() {
                w.parked_epoch = None;
            }
        } else {
            stuck_rounds = 0;
        }
    }
    Ok(e.r)
}

/// Walks one marking window of `w`'s pass (local offsets, no wrap),
/// flushing batches as they fill and the partial batch at pass end.
fn walk_window(
    e: &mut Engine<'_>,
    w: &mut Walker<'_>,
    marks: &mut [bool],
    window: usize,
    batch_blocks: usize,
) -> Result<()> {
    let n_local = w.visited.len();
    let ng = e.job.num_groups() as u64;
    // A pass is two contiguous segments of local offsets: [start, n)
    // then [0, start).
    let (seg_start, seg_len, seg_off) = if w.cursor < n_local - w.start {
        (w.start, n_local - w.start, w.cursor)
    } else {
        (0, w.start, w.cursor - (n_local - w.start))
    };
    let win = window.min(seg_len - seg_off);
    let local0 = seg_start + seg_off;
    e.mark(w.lo + local0, &mut marks[..win]);
    let mut run: Option<usize> = None;
    for (i, &m) in marks[..win].iter().enumerate() {
        let li = local0 + i;
        if m && !w.visited[li] {
            run.get_or_insert(li);
        } else if let Some(s) = run.take() {
            e.r.layers
                .prefetch
                .time(|| e.job.prefetch(w.lo + s..w.lo + li));
        }
    }
    if let Some(s) = run.take() {
        e.r.layers
            .prefetch
            .time(|| e.job.prefetch(w.lo + s..w.lo + local0 + win));
    }
    for (i, &marked) in marks[..win].iter().enumerate() {
        let li = local0 + i;
        if w.visited[li] {
            continue;
        }
        let b = w.lo + li;
        if !marked {
            w.reader.skip_block(b);
            continue;
        }
        w.visited[li] = true;
        w.visited_count += 1;
        w.read_this_pass = true;
        let reader = &mut w.reader;
        let (zs, xs) = read_timed(&mut e.r.layers.read, || {
            reader.try_block_slices(b, e.job.z_attr, e.job.x_attr)
        })?;
        let block_acc = &mut w.block_acc;
        e.r.layers.accumulate.time(|| block_acc.accumulate(zs, xs));
        e.note_block(&w.block_acc, zs.len());
        w.touches.push((b, w.block_acc.touched().to_vec()));
        e.r.merge_cells += w.block_acc.touched().len() as u64 * ng;
        let (batch, block_acc) = (&mut w.batch, &mut w.block_acc);
        e.r.layers.merge.time(|| batch.merge_from(block_acc));
        e.r.layers.clear.time(|| block_acc.clear());
        if w.touches.len() >= batch_blocks {
            flush(e, w)?;
            if e.hs.is_done() {
                return Ok(());
            }
        }
    }
    w.cursor += win;
    if w.cursor == n_local {
        // Pass end: flush the partial batch, then exhaust or park.
        flush(e, w)?;
        w.cursor = 0;
        if w.visited_count == n_local {
            w.exhausted = true;
        } else if !w.read_this_pass {
            w.parked_epoch = Some(e.shared.epoch());
        }
        w.read_this_pass = false;
    }
    Ok(())
}

/// Merges `w`'s batch into the state machine, tracks consumption and
/// republishes demand — the statistics side of one batch message.
fn flush(e: &mut Engine<'_>, w: &mut Walker<'_>) -> Result<()> {
    if w.batch.is_empty() {
        return Ok(());
    }
    let (nc, ng) = (e.job.num_candidates(), e.job.num_groups());
    let fresh = e.r.layers.clear.time(|| HistAccumulator::new(nc, ng));
    let batch = std::mem::replace(&mut w.batch, fresh);
    e.r.merge_cells += batch.touched().len() as u64 * ng as u64;
    let hs = &mut e.hs;
    e.r.layers.merge.time(|| hs.merge(batch));
    let tracker = &mut e.tracker;
    let touches = std::mem::take(&mut w.touches);
    e.r.layers.progress.time(|| {
        for (b, cands) in &touches {
            tracker.block_read(*b, cands, |c| hs.mark_exact(c));
        }
    });
    e.advance_and_publish()?;
    Ok(())
}
