//! Model of the service's admission bound, per-worker run queues and
//! shard parking ([`fastmatch_engine::service`]).
//!
//! Submitters reserve admission slots with a bounded CAS
//! ([`admission_has_capacity`]), enqueue a query's shard tasks on their
//! home queues and notify the worker condvar. Workers pop-or-wait
//! atomically (the real `Scheduler::pop` holds the queue mutex),
//! scanning queues in exactly the extracted [`queue_scan_order`] —
//! own queue first, the others only when stealing is on or shutdown
//! drains. Each quantum reads one block of its shard; a read merges
//! into the query, bumps its demand epoch and wakes its parked shards,
//! then the task requeues (notifying again) or, with its range
//! consumed, retires. Shutdown wakes everyone and turns every quantum
//! into a retirement.
//!
//! A shard whose pass finds nothing readable *parks* on the epoch its
//! pass saw — unless the epoch has moved, then it requeues. When the
//! query's whole live set is parked, as judged by the real
//! [`all_shards_parked`] that `Scheduler::park` calls, the parking
//! worker runs the stuck valve, which republishes demand and wakes the
//! query. Blocks that only the valve's republication makes readable
//! model a shard that can make no progress until it is woken. Named
//! invariants (DESIGN.md § "Concurrency protocols"):
//!
//! * `admission-bounded` — at no interleaving of concurrent submits
//!   does the number of admitted-and-unretired queries exceed the bound.
//! * `no-lost-wakeup` — at quiescence every submitted task has run to
//!   completion; a queued task with every worker asleep is the lost
//!   wakeup.
//! * `shutdown-drains-all-queues` — once shutdown fires, quiescence
//!   means empty queues, exited workers and zero admitted queries.
//! * `all-parked-implies-wake` — whenever a query's live shards are all
//!   parked, some worker is about to run that query's all-parked
//!   re-check or stuck valve.
//! * `no-all-parked-deadlock` — no shard is still parked at quiescence.
//!
//! The model doubles as the proof obligation for the scheduler's
//! `notify_all`: with stealing off, [`AdmissionSteal::with_notify_one`]
//! deadlocks (the explorer produces the exact schedule — see
//! `notify_one_without_stealing_loses_wakeups` and DESIGN.md), while
//! `notify_one` *with* stealing and `notify_all` in any configuration
//! pass exhaustively.
//!
//! A historical anonymous park tally shrank the live set without
//! re-running the all-parked check, stranding a sibling already parked. The
//! service's guard is the re-check in `retire`; `without_retire_recheck`
//! drops it and `finds_pr2_anonymous_park_tally_deadlock` re-finds the
//! deadlock.

use std::collections::VecDeque;

use fastmatch_engine::service::{admission_has_capacity, all_shards_parked, queue_scan_order};

use crate::explorer::{Model, Step, Violation};

/// Worker lifecycle. `Idle` workers are about to pop; `Waiting`
/// workers sleep on the condvar until a notify moves them back to
/// `Idle`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Worker {
    /// Outside the condvar, will pop next.
    Idle,
    /// Asleep on the condvar.
    Waiting,
    /// Holding a popped task, about to run its quantum.
    Running(u8),
    /// Holding task `.0`, whose pass found nothing under epoch `.1`;
    /// about to park it.
    Parking(u8, u8),
    /// Retired a shard of query `.0` with siblings still live; about
    /// to re-check whether they are all parked.
    Recheck(u8),
    /// Saw every live shard of query `.0` parked; about to run the
    /// stuck valve.
    Valve(u8),
    /// Exited after a shutdown drain.
    Exited,
}

/// Task lifecycle, for the invariants.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TaskState {
    /// Not yet submitted.
    Unsubmitted,
    /// In some queue.
    Queued,
    /// Held by a worker.
    Running,
    /// On the scheduler's parked list.
    Parked,
    /// Retired (ran to completion or cancelled by shutdown).
    Done,
}

/// Full protocol state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    queues: Vec<VecDeque<u8>>,
    workers: Vec<Worker>,
    /// Per task: unread blocks readable under the query's demand.
    useful: Vec<u8>,
    /// Per task: unread blocks readable only after the stuck valve.
    stale: Vec<u8>,
    tasks: Vec<TaskState>,
    /// Per query: demand epoch (bumped by every merge and valve).
    epoch: Vec<u8>,
    /// Per query: whether the stuck valve has republished.
    republished: Vec<bool>,
    /// Per query: shards not yet retired (`live_shards`).
    live: Vec<u8>,
    /// Admitted-and-unretired queries (the CAS-guarded counter).
    active: u8,
    /// Next query the submitter will admit.
    submitted: usize,
    shutdown: bool,
}

/// The admission/steal/park model. Defaults mirror production:
/// stealing on, `notify_all`, the retire-time re-check, a shutdown
/// drain at the end.
#[derive(Debug)]
pub struct AdmissionSteal {
    workers: usize,
    /// Per shard task, in admission order (task `i`'s home queue is
    /// `i % workers`): its query, and its initial `useful` and `stale`.
    task_query: Vec<usize>,
    useful: Vec<u8>,
    stale: Vec<u8>,
    queries: usize,
    /// Admission bound.
    limit: u8,
    stealing: bool,
    notify_all: bool,
    with_shutdown: bool,
    retire_recheck: bool,
}

impl AdmissionSteal {
    /// The production configuration with one single-shard query per
    /// entry of `task_quanta`, each reading that many blocks (one per
    /// quantum).
    pub fn new(workers: usize, task_quanta: Vec<u8>, limit: u8) -> Self {
        let mut model = AdmissionSteal {
            workers,
            task_query: Vec::new(),
            useful: Vec::new(),
            stale: Vec::new(),
            queries: 0,
            limit,
            stealing: true,
            notify_all: true,
            with_shutdown: true,
            retire_recheck: true,
        };
        for quanta in task_quanta {
            model = model.with_query(vec![(quanta, 0)]);
        }
        model
    }

    /// Appends one multi-shard query, admitted after the others: per
    /// shard, (blocks readable now, blocks readable only once the stuck
    /// valve republishes). A `(0, 0)` shard is empty.
    pub fn with_query(mut self, shards: Vec<(u8, u8)>) -> Self {
        for (useful, stale) in shards {
            self.task_query.push(self.queries);
            self.useful.push(useful);
            self.stale.push(stale);
        }
        self.queries += 1;
        self
    }

    /// Replaces the enqueue-side `notify_all` with `notify_one` (the
    /// candidate "optimization" the model rules out when stealing is
    /// off).
    pub fn with_notify_one(mut self) -> Self {
        self.notify_all = false;
        self
    }

    /// Turns work stealing off (`ServiceConfig::with_work_stealing(false)`).
    pub fn without_stealing(mut self) -> Self {
        self.stealing = false;
        self
    }

    /// Removes the shutdown actor: the model then checks the steady
    /// state, where quiescence means all tasks done and every worker
    /// asleep (shutdown would otherwise mask a lost wakeup by waking
    /// everyone).
    pub fn without_shutdown(mut self) -> Self {
        self.with_shutdown = false;
        self
    }

    /// The historical anonymous park tally in service form: `retire`
    /// shrinks the live set without re-checking whether the remaining
    /// shards are all parked.
    #[cfg(test)]
    pub fn without_retire_recheck(mut self) -> Self {
        self.retire_recheck = false;
        self
    }

    fn submitter_actor(&self) -> usize {
        self.workers
    }

    fn shutdown_actor(&self) -> usize {
        self.workers + 1
    }

    /// The task ids of query `q`.
    fn tasks_of(&self, q: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.task_query.len()).filter(move |&t| self.task_query[t] == q)
    }

    /// How many of query `q`'s tasks are parked.
    fn parked(&self, s: &State, q: usize) -> usize {
        self.tasks_of(q)
            .filter(|&t| s.tasks[t] == TaskState::Parked)
            .count()
    }

    /// Whether task `t` has a block its next quantum can read.
    fn readable(&self, s: &State, t: usize) -> bool {
        s.useful[t] > 0 || (s.republished[self.task_query[t]] && s.stale[t] > 0)
    }

    /// Queues task `t` at its home queue's tail.
    fn push_home(&self, n: &mut State, t: usize) {
        n.tasks[t] = TaskState::Queued;
        n.queues[t % self.workers].push_back(t as u8);
    }

    /// Notify variants for an enqueue step: with `notify_all` (or no
    /// sleeping worker) the enqueue is one step; with `notify_one` the
    /// scheduler's choice of which waiter wakes is the
    /// nondeterminism, so each candidate is its own step. Step id is
    /// `2 + waiter` (0/1 are reserved for the base step ids).
    fn notify_variants(&self, s: &State, actor: usize, id_base: usize, what: &str) -> Vec<Step> {
        let waiters: Vec<usize> = s
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, Worker::Waiting))
            .map(|(i, _)| i)
            .collect();
        if self.notify_all || waiters.is_empty() {
            vec![Step::new(actor, id_base, format!("{what}, notify-all"))]
        } else {
            waiters
                .into_iter()
                .map(|w| {
                    Step::new(
                        actor,
                        id_base + 2 + w,
                        format!("{what}, notify-one wakes w{w}"),
                    )
                })
                .collect()
        }
    }

    /// Applies the notify encoded in `id` relative to `id_base`.
    fn apply_notify(&self, n: &mut State, id: usize, id_base: usize) {
        if id == id_base {
            wake_all(n);
        } else {
            let target = id - id_base - 2;
            debug_assert!(matches!(n.workers[target], Worker::Waiting));
            n.workers[target] = Worker::Idle;
        }
    }

    /// `Scheduler::wake_query`: moves query `q`'s parked tasks to their
    /// home queues, with a `notify_all` if any moved.
    fn wake_query(&self, n: &mut State, q: usize) {
        let parked: Vec<usize> = self
            .tasks_of(q)
            .filter(|&t| n.tasks[t] == TaskState::Parked)
            .collect();
        if !parked.is_empty() {
            parked.into_iter().for_each(|t| self.push_home(n, t));
            wake_all(n);
        }
    }

    /// Retires task `t` on worker `w`: the last live shard releases the
    /// query's admission slot; otherwise the worker goes on to the
    /// all-parked re-check (unless the mutation dropped it).
    fn retire(&self, n: &mut State, w: usize, t: usize) {
        let q = self.task_query[t];
        n.tasks[t] = TaskState::Done;
        n.live[q] -= 1;
        n.workers[w] = if n.live[q] == 0 {
            n.active -= 1;
            Worker::Idle
        } else if self.retire_recheck {
            Worker::Recheck(q as u8)
        } else {
            Worker::Idle
        };
    }
}

/// Moves every sleeping worker back to `Idle`.
fn wake_all(n: &mut State) {
    for w in n.workers.iter_mut() {
        if matches!(w, Worker::Waiting) {
            *w = Worker::Idle;
        }
    }
}

/// Base step id of a worker's pop-or-wait.
const POP: usize = 0;
/// Base step id of a worker's other steps (quantum, park, re-check,
/// valve — the worker's state says which); requeue notify variants are
/// `RUN + 2 + waiter`.
const RUN: usize = 1;

impl Model for AdmissionSteal {
    type State = State;

    fn name(&self) -> &'static str {
        "admission_steal"
    }

    fn initial(&self) -> State {
        State {
            queues: vec![VecDeque::new(); self.workers],
            workers: vec![Worker::Idle; self.workers],
            useful: self.useful.clone(),
            stale: self.stale.clone(),
            tasks: vec![TaskState::Unsubmitted; self.task_query.len()],
            epoch: vec![0; self.queries],
            republished: vec![false; self.queries],
            live: vec![0; self.queries],
            active: 0,
            submitted: 0,
            shutdown: false,
        }
    }

    fn enabled(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        for (w, worker) in s.workers.iter().enumerate() {
            match *worker {
                Worker::Idle => steps.push(Step::new(w, POP, "pop-or-wait")),
                Worker::Running(t) => {
                    let ti = t as usize;
                    let q = self.task_query[ti];
                    if s.shutdown {
                        steps.push(Step::new(w, RUN, format!("run t{t}, cancelled: retire")));
                    } else if self.readable(s, ti) {
                        let last = s.useful[ti] + s.stale[ti] == 1;
                        let wakes = self.parked(s, q) > 0;
                        if last {
                            steps.push(Step::new(w, RUN, format!("run t{t}, read: retire")));
                        } else if wakes {
                            // wake_query's notify_all precedes the requeue.
                            steps.push(Step::new(w, RUN, format!("run t{t}, read: wake, requeue")));
                        } else {
                            steps.extend(self.notify_variants(
                                s,
                                w,
                                RUN,
                                &format!("run t{t}, read: requeue"),
                            ));
                        }
                    } else if s.useful[ti] + s.stale[ti] == 0 {
                        steps.push(Step::new(w, RUN, format!("run t{t}, empty shard: retire")));
                    } else {
                        steps.push(Step::new(w, RUN, format!("run t{t}, fruitless pass")));
                    }
                }
                Worker::Parking(t, e) => {
                    steps.push(Step::new(w, RUN, format!("park t{t} at e{e}")));
                }
                Worker::Recheck(q) => {
                    steps.push(Step::new(w, RUN, format!("re-check q{q} all-parked")));
                }
                Worker::Valve(q) => {
                    steps.push(Step::new(w, RUN, format!("stuck valve q{q}, wake")));
                }
                Worker::Waiting | Worker::Exited => {}
            }
        }
        if s.submitted < self.queries
            && !s.shutdown
            && admission_has_capacity(s.active as usize, self.limit as usize)
        {
            steps.extend(self.notify_variants(
                s,
                self.submitter_actor(),
                0,
                &format!("admit q{}", s.submitted),
            ));
        }
        if self.with_shutdown && !s.shutdown && s.submitted == self.queries {
            steps.push(Step::new(self.shutdown_actor(), 0, "shutdown, notify-all"));
        }
        steps
    }

    fn apply(&self, s: &State, step: &Step) -> State {
        let mut n = s.clone();
        if step.actor < self.workers {
            let w = step.actor;
            if step.id == POP {
                // Atomic pop-or-wait under the queue mutex, scanning in
                // the real protocol's order.
                let hit = queue_scan_order(w, self.workers, self.stealing, s.shutdown)
                    .find(|&q| !s.queues[q].is_empty());
                match hit {
                    Some(q) => {
                        let t = n.queues[q].pop_front().expect("scan found a task");
                        n.tasks[t as usize] = TaskState::Running;
                        n.workers[w] = Worker::Running(t);
                    }
                    None if s.shutdown => n.workers[w] = Worker::Exited,
                    None => n.workers[w] = Worker::Waiting,
                }
                return n;
            }
            match s.workers[w] {
                Worker::Running(t) => {
                    let ti = t as usize;
                    let q = self.task_query[ti];
                    if s.shutdown || s.useful[ti] + s.stale[ti] == 0 {
                        // Shutdown cancellation, or an empty shard.
                        self.retire(&mut n, w, ti);
                    } else if self.readable(s, ti) {
                        if s.useful[ti] > 0 {
                            n.useful[ti] -= 1;
                        } else {
                            n.stale[ti] -= 1;
                        }
                        // The merge republishes demand and wakes the
                        // query's parked shards.
                        n.epoch[q] += 1;
                        self.wake_query(&mut n, q);
                        if n.useful[ti] + n.stale[ti] == 0 {
                            self.retire(&mut n, w, ti);
                        } else {
                            self.push_home(&mut n, ti);
                            n.workers[w] = Worker::Idle;
                            self.apply_notify(&mut n, step.id, RUN);
                        }
                    } else {
                        n.workers[w] = Worker::Parking(t, s.epoch[q]);
                    }
                }
                Worker::Parking(t, e) => {
                    // `Scheduler::park`, atomic under the queue mutex.
                    let ti = t as usize;
                    let q = self.task_query[ti];
                    n.workers[w] = Worker::Idle;
                    if s.shutdown || s.epoch[q] != e {
                        self.push_home(&mut n, ti);
                        wake_all(&mut n);
                    } else {
                        n.tasks[ti] = TaskState::Parked;
                        if all_shards_parked(self.parked(&n, q), n.live[q] as usize) {
                            n.workers[w] = Worker::Valve(q as u8);
                        }
                    }
                }
                Worker::Recheck(q) => {
                    // `Scheduler::all_parked` after the live set shrank.
                    let qi = q as usize;
                    n.workers[w] = if all_shards_parked(self.parked(s, qi), s.live[qi] as usize) {
                        Worker::Valve(q)
                    } else {
                        Worker::Idle
                    };
                }
                Worker::Valve(q) => {
                    let qi = q as usize;
                    n.republished[qi] = true;
                    n.epoch[qi] += 1;
                    self.wake_query(&mut n, qi);
                    n.workers[w] = Worker::Idle;
                }
                ref other => unreachable!("run step on {other:?}"),
            }
        } else if step.actor == self.submitter_actor() {
            let q = s.submitted;
            n.active += 1;
            n.submitted += 1;
            for t in self.tasks_of(q) {
                self.push_home(&mut n, t);
                n.live[q] += 1;
            }
            self.apply_notify(&mut n, step.id, 0);
        } else {
            // `Scheduler::shutdown`: parked tasks become runnable (to be
            // retired as cancelled) and every worker wakes.
            n.shutdown = true;
            for q in 0..self.queries {
                self.wake_query(&mut n, q);
            }
            wake_all(&mut n);
        }
        n
    }

    fn check(&self, s: &State) -> Result<(), Violation> {
        if s.active > self.limit {
            return Err(Violation::new(
                "admission-bounded",
                format!(
                    "{} queries admitted past the bound of {}",
                    s.active, self.limit
                ),
            ));
        }
        for q in 0..self.queries {
            let pending = s
                .workers
                .iter()
                .any(|w| matches!(*w, Worker::Recheck(p) | Worker::Valve(p) if p as usize == q));
            if all_shards_parked(self.parked(s, q), s.live[q] as usize) && !pending {
                return Err(Violation::new(
                    "all-parked-implies-wake",
                    format!(
                        "all {} live shards of q{q} parked with no re-check or valve pending",
                        s.live[q]
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&self, s: &State) -> Result<(), Violation> {
        if let Some(t) = s.tasks.iter().position(|t| *t == TaskState::Parked) {
            return Err(Violation::new(
                "no-all-parked-deadlock",
                format!("task t{t} is parked at quiescence — nobody left to wake it"),
            ));
        }
        if let Some(t) = s
            .tasks
            .iter()
            .position(|t| matches!(t, TaskState::Queued | TaskState::Running))
        {
            return Err(Violation::new(
                "no-lost-wakeup",
                format!(
                    "task t{t} is {:?} at quiescence with workers {:?} — nobody will run it",
                    s.tasks[t], s.workers
                ),
            ));
        }
        if s.shutdown {
            let stranded = s.queues.iter().map(VecDeque::len).sum::<usize>();
            if stranded > 0
                || s.active > 0
                || !s.workers.iter().all(|w| matches!(w, Worker::Exited))
            {
                return Err(Violation::new(
                    "shutdown-drains-all-queues",
                    format!(
                        "after shutdown: {stranded} queued, {} active, workers {:?}",
                        s.active, s.workers
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::Explorer;

    /// The historical scenario: shard 0 is empty (it retires at once); shard 1
    /// holds one block that only the stuck valve makes readable (it
    /// parks first).
    fn historical_shards() -> Vec<(u8, u8)> {
        vec![(0, 0), (0, 1)]
    }

    #[test]
    fn production_config_is_clean() {
        // Two workers, three single-shard queries (one multi-quantum)
        // and a parking two-shard query, admission bound of two: submits
        // must wait for retirements, stealing and notify_all keep
        // everything live, parked shards are woken, shutdown drains.
        let model = AdmissionSteal::new(2, vec![1, 2, 1], 2).with_query(historical_shards());
        let stats = Explorer::new(model)
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.truncated, 0, "scope must be fully explored");
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn parked_shards_are_always_woken() {
        for shards in [
            historical_shards(),
            vec![(1, 1), (0, 1)],
            vec![(0, 1), (0, 1), (1, 0)],
        ] {
            for model in [
                AdmissionSteal::new(2, vec![], 1).with_query(shards.clone()),
                AdmissionSteal::new(2, vec![], 1)
                    .with_query(shards.clone())
                    .without_shutdown(),
            ] {
                let stats = Explorer::new(model)
                    .explore()
                    .unwrap_or_else(|f| panic!("{f}"));
                assert_eq!(stats.truncated, 0, "scope must be fully explored");
                assert!(stats.quiescent >= 1);
            }
        }
    }

    #[test]
    fn finds_pr2_anonymous_park_tally_deadlock() {
        let model = AdmissionSteal::new(2, vec![], 1)
            .with_query(historical_shards())
            .without_retire_recheck()
            .without_shutdown();
        let failure = Explorer::new(model)
            .explore()
            .expect_err("the anonymous-tally deadlock must be found");
        // Two lenses on the same bug: the query rests all-parked with no
        // wake pending (safety) and the parked shard is never woken
        // (liveness). Which one the search trips first depends on visit
        // order; both are the historical deadlock.
        assert!(
            ["all-parked-implies-wake", "no-all-parked-deadlock"]
                .contains(&failure.violation.invariant),
            "unexpected invariant: {}",
            failure.violation
        );
        let trace = failure.to_string();
        assert!(
            trace.contains("park t1 at e") && trace.contains("run t0, empty shard: retire"),
            "the failing schedule must park t1, then shrink the live set:\n{trace}"
        );
    }

    #[test]
    fn steady_state_without_stealing_is_clean_with_notify_all() {
        let model = AdmissionSteal::new(2, vec![1, 2], 2)
            .without_stealing()
            .without_shutdown();
        Explorer::new(model)
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
    }

    /// The schedule that makes the scheduler's `notify_all` load-bearing
    /// (DESIGN.md § "Concurrency protocols"): with stealing off, waking
    /// one arbitrary worker can pick one that will never scan the
    /// task's home queue.
    #[test]
    fn notify_one_without_stealing_loses_wakeups() {
        let model = AdmissionSteal::new(2, vec![1], 1)
            .with_notify_one()
            .without_stealing()
            .without_shutdown();
        let failure = Explorer::new(model)
            .explore()
            .expect_err("notify_one without stealing must deadlock");
        assert_eq!(failure.violation.invariant, "no-lost-wakeup");
        let trace = failure.to_string();
        assert!(
            trace.contains("notify-one wakes w1"),
            "the trace must wake the worker that cannot serve queue 0:\n{trace}"
        );
    }

    #[test]
    fn notify_one_with_stealing_is_safe() {
        // Any woken worker can steal, so no wakeup is lost — the model
        // clears the alternative before we keep paying for notify_all.
        let model = AdmissionSteal::new(2, vec![1, 2], 2)
            .with_notify_one()
            .without_shutdown();
        Explorer::new(model)
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
    }

    #[test]
    fn shutdown_drains_queued_tasks() {
        // Shutdown can fire while tasks are still queued or mid-quantum;
        // every interleaving must end drained, exited and slot-balanced.
        let stats = Explorer::new(AdmissionSteal::new(2, vec![2, 1], 2))
            .explore()
            .unwrap_or_else(|f| panic!("{f}"));
        assert!(stats.quiescent >= 1);
    }

    #[test]
    fn walk_mode_agrees_with_exhaustion() {
        let stats = Explorer::new(AdmissionSteal::new(2, vec![1, 2, 1], 2))
            .walk(0x5c4e_d001, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
        let model = AdmissionSteal::new(2, vec![1], 1)
            .with_notify_one()
            .without_stealing()
            .without_shutdown();
        let failure = Explorer::new(model)
            .walk(0x5c4e_d001, 500)
            .expect_err("soak mode must also find the lost wakeup");
        assert_eq!(failure.violation.invariant, "no-lost-wakeup");
    }

    #[test]
    fn shard_parking_walk_agrees_with_exhaustion() {
        let model = AdmissionSteal::new(2, vec![1, 2, 1], 2).with_query(historical_shards());
        let stats = Explorer::new(model)
            .walk(0x5c4e_d001, 500)
            .unwrap_or_else(|f| panic!("{f}"));
        assert_eq!(stats.schedules, 500);
        let model = AdmissionSteal::new(2, vec![], 1)
            .with_query(historical_shards())
            .without_retire_recheck()
            .without_shutdown();
        let failure = Explorer::new(model)
            .walk(0x9a12_77e1, 500)
            .expect_err("soak mode must also find the historical deadlock");
        assert!(["all-parked-implies-wake", "no-all-parked-deadlock"]
            .contains(&failure.violation.invariant));
    }
}
