//! `ParallelMatch`: shard-parallel ingestion over mergeable accumulators.
//!
//! FastMatch (paper §4) decouples *block selection* from the statistics
//! engine but still funnels every tuple through one ingesting core.
//! `ParallelMatch` removes that ceiling by splitting ingestion itself:
//! it runs its one query on a private [`QueryService`] with one worker
//! and one shard per core, and waits for the outcome.
//!
//! Each shard task multi-passes its own block range with FastMatch's
//! AnyActive marking (Algorithm 3), folds a quantum's blocks into a
//! phase-free [`HistAccumulator`](fastmatch_core::histsim::HistAccumulator)
//! batch and merges it into the authoritative state machine, which
//! advances phases and republishes demand. Stale demand snapshots only
//! deliver extra valid samples (any block set of the pre-permuted table
//! is a uniform sample), so no core ever stalls. When every shard has
//! consumed its range the run finishes with exact results.

use fastmatch_core::error::Result;

use crate::exec::Executor;
use crate::query::QueryJob;
use crate::result::MatchOutput;
use crate::service::{QuantumPolicy, QueryOutcome, QueryService, ServiceConfig, ServiceError};

/// Default number of shard workers: the machine's parallelism, capped —
/// beyond a handful of cores the statistics engine's merge becomes the
/// bottleneck before ingestion does.
pub const DEFAULT_SHARDS: usize = 4;

/// Blocks read per scheduling quantum, i.e. per merged batch. Larger
/// batches amortize scheduling and merge overhead; smaller ones bound
/// demand staleness and stage overshoot. 32 blocks ≈ 4800 tuples at the
/// paper's block size.
pub const DEFAULT_BATCH_BLOCKS: usize = 32;

/// The shard-parallel executor.
#[derive(Debug, Clone, Copy)]
pub struct ParallelMatchExec {
    /// Number of shard workers (and block-range shards).
    pub shards: usize,
    /// Blocks per accumulator batch: the private service's quantum.
    pub batch_blocks: usize,
}

impl Default for ParallelMatchExec {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(DEFAULT_SHARDS);
        ParallelMatchExec {
            shards: cores.clamp(1, 8),
            batch_blocks: DEFAULT_BATCH_BLOCKS,
        }
    }
}

impl ParallelMatchExec {
    /// Creates the executor with a fixed shard count.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ParallelMatchExec {
            shards,
            batch_blocks: DEFAULT_BATCH_BLOCKS,
        }
    }
}

impl Executor for ParallelMatchExec {
    fn name(&self) -> &'static str {
        "ParallelMatch"
    }

    fn run(&self, job: &QueryJob<'_>, seed: u64) -> Result<MatchOutput> {
        // Never spawn more workers than blocks: the extra shards would be
        // empty. (An empty shard still retires on its first quantum, but
        // an idle thread per missing block buys nothing.)
        let shards = self.shards.min(job.layout.num_blocks()).max(1);
        let config = ServiceConfig {
            workers: shards,
            shards_per_query: shards,
            quantum_blocks: self.batch_blocks,
            quantum: QuantumPolicy::Fixed,
            work_stealing: true,
            max_admitted: 1,
        };
        let outcome = job.with_backend(|backend| {
            QueryService::serve(backend, config, |svc| {
                svc.admit(job.clone(), seed, None).map(|h| h.wait())
            })
        });
        match outcome {
            Ok(QueryOutcome::Finished(out)) => Ok(out),
            Ok(QueryOutcome::Failed(e)) | Err(ServiceError::Invalid(e)) => Err(e),
            // Nothing cancels the query, it has no deadline, and the
            // private service admits it alone and shuts down after it.
            other => unreachable!("private service ended the query as {other:?}"),
        }
    }
}
