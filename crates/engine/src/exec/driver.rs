//! The shared statistics-engine driver.
//!
//! Every executor that runs the HistSim protocol repeats the same
//! scaffolding: build the state machine, mark never-present candidates
//! exact, feed it samples while tracking per-candidate consumption,
//! advance phases whenever demand is met, publish fresh demand to any
//! sampling-engine threads, and package the output with run statistics.
//! [`Driver`] owns exactly that scaffolding so `ScanMatch`/`SyncMatch`
//! (sequential), `FastMatch` (async lookahead) and the service's shard
//! quanta (behind `ParallelMatch`) differ only in *how blocks are chosen and delivered*,
//! not in how HistSim is driven.

use std::time::Instant;

use fastmatch_core::error::{CoreError, Result};
use fastmatch_core::histsim::{HistAccumulator, HistSim, PhaseKind};
use fastmatch_store::io::IoStats;

use crate::progress::ConsumptionTracker;
use crate::query::QueryJob;
use crate::result::{MatchOutput, RunStats};
use crate::shared::{DemandMode, SharedDemand};

/// The candidate column of one block read by a shard quantum, so the
/// merge can maintain consumption tracking without re-reading the
/// block.
#[derive(Debug)]
pub(crate) struct BlockTouch {
    /// Block id.
    pub id: u32,
    /// The block's candidate codes, duplicates included: the tracker
    /// deduplicates by block stamp.
    pub candidates: Vec<u32>,
}

/// The statistics engine shared by all HistSim executors: the state
/// machine plus consumption tracking and run-stats packaging.
#[derive(Debug)]
pub(crate) struct Driver {
    /// The state machine being driven.
    pub hs: HistSim,
    tracker: ConsumptionTracker,
    /// Blocks of the table not yet ingested; at 0 the table is consumed
    /// and the run finishes exactly.
    blocks_unread: usize,
    t0: Instant,
}

impl Driver {
    /// Builds the state machine for `job` and marks candidates that never
    /// occur in the data as exact (they can yield no samples).
    pub fn new(job: &QueryJob<'_>) -> Result<Self> {
        let t0 = Instant::now();
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
        Ok(Driver {
            hs,
            tracker,
            blocks_unread: job.layout.num_blocks(),
            t0,
        })
    }

    /// Ingests one read block and updates consumption tracking — the
    /// synchronous ingestion path. The tuples go straight into the state
    /// machine, and the tracker deduplicates the block's candidates
    /// itself, so the block costs `O(tuples)` whatever `|V_X|` is.
    #[inline]
    pub fn ingest_block(&mut self, b: usize, zs: &[u32], xs: &[u32]) {
        self.hs.ingest_block(zs, xs);
        let hs = &mut self.hs;
        self.tracker.block_read(b, zs, |c| hs.mark_exact(c));
        self.blocks_unread -= 1;
    }

    /// Merges a shard batch: folds the accumulated deltas into the state
    /// machine and updates consumption tracking from the per-block
    /// candidate columns — the parallel ingestion path.
    pub fn merge_batch(&mut self, acc: HistAccumulator, blocks: &[BlockTouch]) {
        self.hs.merge(acc);
        let hs = &mut self.hs;
        for bt in blocks {
            self.tracker
                .block_read(bt.id as usize, &bt.candidates, |c| hs.mark_exact(c));
        }
        self.blocks_unread -= blocks.len();
    }

    /// Advances the state machine through every phase whose demand is
    /// already satisfied — or, once every block of the table has been
    /// ingested, finishes it exactly: the counts then *are* the true
    /// histograms, whichever phase the run was in.
    pub fn advance(&mut self) -> Result<()> {
        if self.blocks_unread == 0 && !self.hs.is_done() {
            return self.hs.complete_io_phase(true);
        }
        while self.hs.io_satisfied() && !self.hs.is_done() {
            self.hs.complete_io_phase(false)?;
        }
        Ok(())
    }

    /// [`Self::advance`], then publishes the resulting demand snapshot for
    /// sampling-engine / shard-worker threads — as one atomic publication
    /// (single epoch bump), so a woken reader never sees a fresh mode
    /// with stale demand or vice versa.
    pub fn advance_and_publish(&mut self, shared: &SharedDemand) -> Result<()> {
        self.advance()?;
        match self.hs.phase() {
            PhaseKind::Stage1 => shared.publish(DemandMode::ReadAll, None),
            PhaseKind::Stage2 | PhaseKind::Stage3 => {
                shared.publish(DemandMode::AnyActive, Some(self.hs.remaining_slice()));
            }
            PhaseKind::Done => shared.publish(DemandMode::Stop, None),
        }
        Ok(())
    }

    /// Finishes a run whose executor has walked the entire table. Every
    /// block was ingested, so [`Self::advance`] finishes exactly; a
    /// block the executor lost track of is a protocol bug, reported
    /// rather than passed off as an exact finish.
    pub fn finish_exhausted(&mut self) -> Result<()> {
        self.advance()?;
        if self.hs.is_done() {
            Ok(())
        } else {
            Err(CoreError::PhaseViolation(format!(
                "table reported exhausted with {} blocks never ingested",
                self.blocks_unread
            )))
        }
    }

    /// Extracts the output and packages it with run statistics.
    pub fn finish(self, io: IoStats) -> Result<MatchOutput> {
        let output = self.hs.output()?;
        let stats = RunStats {
            wall: self.t0.elapsed(),
            io,
            stage2_rounds: output.diagnostics.stage2_rounds,
            samples: output.diagnostics.total_samples,
            exact_finish: output.diagnostics.exact_finish,
            pruned: output.diagnostics.pruned_candidates,
        };
        Ok(MatchOutput { output, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmatch_core::histsim::HistSimConfig;
    use fastmatch_store::bitmap::BitmapIndex;
    use fastmatch_store::block::BlockLayout;
    use fastmatch_store::schema::{AttrDef, Schema};
    use fastmatch_store::table::Table;

    /// An exact finish needs every block ingested: a walk that claims
    /// exhaustion with a block missing is a protocol bug, reported as an
    /// error rather than passed off as exact.
    #[test]
    fn exact_finish_only_when_every_block_is_ingested() {
        let schema = Schema::new(vec![AttrDef::new("z", 2), AttrDef::new("x", 2)]);
        let table = Table::new(schema, vec![vec![0, 1, 0, 1], vec![0, 0, 1, 1]]);
        let layout = BlockLayout::new(4, 2); // 2 blocks
        let bitmap = BitmapIndex::build(&table, 0, &layout);
        let job = QueryJob::new(
            &table,
            layout,
            &bitmap,
            0,
            1,
            vec![0.5, 0.5],
            HistSimConfig {
                k: 1,
                stage1_samples: 1_000,
                ..HistSimConfig::default()
            },
        );
        let mut reader = job.reader();
        let mut d = Driver::new(&job).unwrap();
        let (zs, xs) = reader.block_slices(0, 0, 1);
        d.ingest_block(0, zs, xs);
        assert!(matches!(
            d.finish_exhausted(),
            Err(CoreError::PhaseViolation(_))
        ));
        let (zs, xs) = reader.block_slices(1, 0, 1);
        d.ingest_block(1, zs, xs);
        d.finish_exhausted().unwrap();
        assert!(d.finish(IoStats::default()).unwrap().stats.exact_finish);
    }
}
