//! Per-query handles: progressive results, cancellation and final
//! outcomes.
//!
//! A [`QueryHandle`] is the client's view of one admitted query. It is
//! `'static` (no borrow of the service, the backend or the bitmap), so a
//! client thread can hold handles, poll [`QueryHandle::progress`] for the
//! current top-k preview and guarantee state, request cooperative
//! cancellation, and block on [`QueryHandle::wait`] for the final
//! [`QueryOutcome`] — all while the service's workers keep multiplexing
//! other queries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use fastmatch_core::error::CoreError;
use fastmatch_core::histsim::PhaseKind;
use fastmatch_store::io::IoStats;

use crate::exec::driver::Driver;
use crate::result::MatchOutput;
use crate::service::state::EngineState;

/// How much of HistSim's ε–δ contract the current (or final) result
/// carries. Derived from the phase the state machine has reached: each
/// stage *completes* by certifying one more piece of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuaranteeState {
    /// Stage 1 in progress: the preview is a raw estimate; rare
    /// candidates have not even been pruned yet.
    None,
    /// Stage 2 in progress: the preview is the current round's matching
    /// set, not yet certified to be the true top-k.
    Separating,
    /// Stage 3 in progress: the matched *set* is certified (Guarantee 1
    /// holds at level δ); member histograms are still being topped up to
    /// the reconstruction bound.
    Separated,
    /// Terminal: both guarantees hold (separation and ε-reconstruction).
    Full,
    /// Terminal: the whole table was consumed — results are exact, which
    /// is strictly stronger than [`GuaranteeState::Full`].
    Exact,
}

impl GuaranteeState {
    /// Maps the state machine's phase (plus the exact-finish flag, once
    /// done) to the guarantee the client may rely on.
    pub(crate) fn from_phase(phase: PhaseKind, exact_finish: bool) -> Self {
        match phase {
            PhaseKind::Stage1 => GuaranteeState::None,
            PhaseKind::Stage2 => GuaranteeState::Separating,
            PhaseKind::Stage3 => GuaranteeState::Separated,
            PhaseKind::Done => {
                if exact_finish {
                    GuaranteeState::Exact
                } else {
                    GuaranteeState::Full
                }
            }
        }
    }
}

/// A progressive snapshot of one running query, built from the query's
/// statistics engine each time [`QueryHandle::progress`] is called, at
/// O(|V_Z|·|V_X|) under the query's engine mutex.
#[derive(Debug, Clone)]
pub struct QueryProgress {
    /// The stage the query's state machine is in.
    pub phase: PhaseKind,
    /// The guarantee attached to `current_topk` right now.
    pub guarantee: GuaranteeState,
    /// The current best estimate of the top-k (closest first). Empty
    /// until the first quantum merges a sample.
    pub current_topk: Vec<u32>,
    /// Samples ingested so far.
    pub samples: u64,
    /// I/O attributed to this query so far — including its private view
    /// of the *shared* cache (`pages_cache_hit` / `pages_cache_miss`).
    pub io: IoStats,
}

impl QueryProgress {
    /// The snapshot of a running statistics engine with `io` attributed.
    pub(crate) fn of(d: &Driver, io: IoStats) -> Self {
        let phase = d.hs.phase();
        // `remaining_slice` holds one entry per candidate.
        let samples = (0..d.hs.remaining_slice().len() as u32)
            .map(|c| d.hs.samples_for(c))
            .sum();
        QueryProgress {
            phase,
            guarantee: GuaranteeState::from_phase(phase, d.hs.diagnostics().exact_finish),
            current_topk: if samples == 0 && phase != PhaseKind::Done {
                Vec::new()
            } else {
                d.hs.current_topk()
            },
            samples,
            io,
        }
    }
}

/// How one admitted query ended.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The run terminated through HistSim (guarantee-satisfying, or exact
    /// after consuming the whole table). Per-query I/O attribution is in
    /// `stats.io`.
    Finished(MatchOutput),
    /// The client cancelled the query (or the service shut down first).
    Cancelled,
    /// The query's deadline expired before it finished.
    DeadlineExpired,
    /// The run failed (storage error, phase violation).
    Failed(CoreError),
}

impl QueryOutcome {
    /// The finished output, if the query completed normally.
    pub fn finished(&self) -> Option<&MatchOutput> {
        match self {
            QueryOutcome::Finished(out) => Some(out),
            _ => None,
        }
    }
}

/// Handle-side shared state: cancellation flag, the query's engine
/// mutex and the final outcome, all `'static` so handles outlive the
/// scope that produced them.
#[derive(Debug)]
pub(crate) struct QueryShared {
    id: u64,
    cancel: AtomicBool,
    /// Driver + accounting: the query's engine mutex.
    pub(crate) engine: Mutex<EngineState>,
    outcome: Mutex<Option<QueryOutcome>>,
    cv: Condvar,
}

impl QueryShared {
    pub(crate) fn new(id: u64, engine: EngineState) -> Self {
        QueryShared {
            id,
            cancel: AtomicBool::new(false),
            engine: Mutex::new(engine),
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Publishes the terminal outcome and wakes every waiter.
    pub(crate) fn publish_outcome(&self, outcome: QueryOutcome) {
        let mut slot = self.outcome.lock().unwrap();
        debug_assert!(slot.is_none(), "outcome published twice");
        *slot = Some(outcome);
        self.cv.notify_all();
    }
}

/// The client's handle to one admitted query.
#[derive(Debug, Clone)]
pub struct QueryHandle {
    pub(crate) shared: std::sync::Arc<QueryShared>,
}

impl QueryHandle {
    /// The service-assigned query id (unique per service instance).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The query's progress right now (current top-k + guarantee state +
    /// attributed I/O), built on request: each call costs
    /// O(|V_Z|·|V_X|) under the query's engine mutex, which the
    /// service's workers need to merge their quanta. Once the query is
    /// terminal this returns the snapshot taken when its last shard
    /// retired — for a cancelled or expired query, its last state.
    pub fn progress(&self) -> QueryProgress {
        self.shared.engine.lock().unwrap().progress()
    }

    /// Requests cooperative cancellation. Workers observe the flag at
    /// their next scheduling quantum; the outcome becomes
    /// [`QueryOutcome::Cancelled`] unless the query terminated first.
    /// Idempotent; never blocks.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether the final outcome is available.
    pub fn is_done(&self) -> bool {
        self.shared.outcome.lock().unwrap().is_some()
    }

    /// The final outcome, if available (non-blocking).
    pub fn try_outcome(&self) -> Option<QueryOutcome> {
        self.shared.outcome.lock().unwrap().clone()
    }

    /// Blocks until the query reaches a terminal state and returns the
    /// outcome.
    pub fn wait(&self) -> QueryOutcome {
        let mut slot = self.shared.outcome.lock().unwrap();
        loop {
            if let Some(out) = &*slot {
                return out.clone();
            }
            slot = self.shared.cv.wait(slot).unwrap();
        }
    }
}
