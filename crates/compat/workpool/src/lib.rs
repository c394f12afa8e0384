//! A minimal **work-stealing thread pool**, vendored because this
//! workspace builds with no registry access (no `rayon`, no
//! `crossbeam-deque`; see `crates/compat/README.md`).
//!
//! The structure is the classic one those crates implement, specialized
//! to a finite batch of tasks known up front:
//!
//! * a **shared injector queue** holding the tasks beyond the initial
//!   deal, popped FIFO (oldest first);
//! * **per-worker deques**, seeded with one task each (task `j` goes to
//!   worker `j`, preserving the static placement a non-stealing
//!   scheduler would use for its first round). A worker pops its own
//!   deque LIFO and **steals FIFO** from a peer's deque — the peer's
//!   coldest task — only when both its own deque and the injector are
//!   empty.
//!
//! With a finite batch of non-spawning tasks the division of labor is:
//! the injector does the bulk of the dynamic dealing (a free worker
//! pulls the oldest undealt task), while the peer-steal path is the
//! stall insurance — it fires when a worker holding a seeded task has
//! not started it yet (observed regularly on single-core hosts running
//! CPU-bound tasks, where a whole task can complete before a peer's
//! thread is first scheduled). If tasks ever gain the ability to spawn
//! subtasks into their own deque — e.g. a crawl shard splitting itself
//! when it discovers it is heavy — the deques and LIFO/FIFO asymmetry
//! become the primary mechanism, which is why the classic structure is
//! kept rather than a single shared queue.
//!
//! Tasks do not spawn subtasks today, so a worker that finds every
//! queue empty can exit: no new work can appear. That keeps the pool
//! free of any parking/notification machinery. The assumption is pinned
//! by [`Pool::TASKS_CAN_SPAWN`] and a regression test that fails loudly
//! if anyone flips it without reworking termination.
//!
//! # Determinism contract
//!
//! Results are returned **in task order**, regardless of which worker
//! executed which task. *Which* worker runs a task — and therefore the
//! per-worker statistics — depends on timing and is not deterministic;
//! callers must not bake the assignment into outputs they want
//! reproducible. What each task *computes* must depend only on the task
//! itself and on per-worker state the caller controls.
//!
//! # Worker retirement
//!
//! The task closure returns a [`Verdict`] alongside its result. On
//! [`Verdict::Retire`] the worker stops taking tasks (its own deque is
//! necessarily empty at that point — seeded tasks are popped before
//! anything else — so nothing it holds is lost); remaining tasks are
//! drained by the other workers. If every worker retires, leftover tasks
//! are never executed and are reported in [`PoolStats::unrun`], and their
//! result slots stay `None`. The crawler uses this for dead client
//! identities: a session whose quota is exhausted must not burn one
//! doomed query per remaining shard.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// How a worker acquired a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Popped from the worker's own deque (the initial static deal).
    Seeded,
    /// Pulled from the shared injector queue (dynamic dealing).
    Injected,
    /// Stolen from another worker's deque.
    Stolen {
        /// The worker the task was stolen from.
        from: usize,
    },
}

impl Source {
    /// Whether this acquisition was a steal from a peer.
    pub fn is_steal(&self) -> bool {
        matches!(self, Source::Stolen { .. })
    }
}

/// Context handed to the task closure for each execution.
#[derive(Clone, Copy, Debug)]
pub struct TaskCtx {
    /// Index of the executing worker (`0..workers`).
    pub worker: usize,
    /// Index of the task in the input vector.
    pub index: usize,
    /// How the worker acquired the task.
    pub source: Source,
}

/// What the worker should do after finishing a task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Keep taking tasks.
    Continue,
    /// Stop taking tasks (e.g. the worker's connection is dead). The
    /// worker's remaining share is drained by its peers.
    Retire,
}

/// Per-worker execution counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed in total.
    pub executed: u64,
    /// …of which came from its own seeded deque.
    pub seeded: u64,
    /// …of which were pulled from the shared injector.
    pub injected: u64,
    /// …of which were stolen from a peer's deque.
    pub stolen: u64,
    /// Wall time spent inside the task closure.
    pub busy: Duration,
    /// Whether the worker retired before the queues drained.
    pub retired: bool,
}

/// Aggregate statistics of one [`Pool::run`] call.
#[derive(Clone, Debug)]
pub struct PoolStats {
    /// Worker count of the run.
    pub workers: usize,
    /// Wall time of the whole run (spawn to last join).
    pub wall: Duration,
    /// Per-worker counters, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Tasks never executed because every remaining worker retired.
    pub unrun: usize,
    /// Whether the run's cancellation flag was set when it finished
    /// (always `false` for [`Pool::run`], which has no flag). Cancelled
    /// runs also count their abandoned tasks in [`PoolStats::unrun`].
    pub cancelled: bool,
}

impl PoolStats {
    /// Total tasks stolen from peer deques.
    pub fn steals(&self) -> u64 {
        self.per_worker.iter().map(|w| w.stolen).sum()
    }

    /// Total tasks pulled from the shared injector.
    pub fn injected(&self) -> u64 {
        self.per_worker.iter().map(|w| w.injected).sum()
    }

    /// Total tasks executed across all workers.
    pub fn executed(&self) -> u64 {
        self.per_worker.iter().map(|w| w.executed).sum()
    }

    /// Wall time worker `w` spent *not* running tasks — waiting to start,
    /// scanning queues, or finished early. High idle on some workers with
    /// low idle on others is the signature of imbalance.
    pub fn idle(&self, w: usize) -> Duration {
        self.wall.saturating_sub(self.per_worker[w].busy)
    }

    /// Workers that executed no task at all.
    pub fn idle_workers(&self) -> usize {
        self.per_worker.iter().filter(|w| w.executed == 0).count()
    }
}

/// The queues shared by all workers of one run.
struct Shared<T> {
    /// `deques[w]`: worker `w`'s own deque (LIFO for the owner, FIFO for
    /// thieves).
    deques: Vec<Mutex<VecDeque<(usize, T)>>>,
    /// The global FIFO injector.
    injector: Mutex<VecDeque<(usize, T)>>,
}

impl<T> Shared<T> {
    /// Seeds the queues: one task per worker deque, the rest into the
    /// injector in task order.
    fn seed(workers: usize, tasks: Vec<T>) -> Self {
        let mut deques: Vec<VecDeque<(usize, T)>> =
            (0..workers).map(|_| VecDeque::new()).collect();
        let mut injector = VecDeque::new();
        for (i, t) in tasks.into_iter().enumerate() {
            if i < workers {
                deques[i].push_back((i, t));
            } else {
                injector.push_back((i, t));
            }
        }
        Shared {
            deques: deques.into_iter().map(Mutex::new).collect(),
            injector: Mutex::new(injector),
        }
    }

    /// The next task for worker `w`: own deque (LIFO), then the injector
    /// (FIFO), then a peer's deque (FIFO), scanning peers round-robin
    /// from `w + 1`. `None` means every queue is empty — since tasks
    /// never spawn tasks, the worker is done.
    fn next_task(&self, w: usize) -> Option<(usize, T, Source)> {
        if let Some((i, t)) = self.deques[w].lock().expect("deque poisoned").pop_back() {
            return Some((i, t, Source::Seeded));
        }
        if let Some((i, t)) = self.injector.lock().expect("injector poisoned").pop_front() {
            return Some((i, t, Source::Injected));
        }
        let workers = self.deques.len();
        for off in 1..workers {
            let p = (w + off) % workers;
            if let Some((i, t)) = self.deques[p].lock().expect("deque poisoned").pop_front() {
                return Some((i, t, Source::Stolen { from: p }));
            }
        }
        None
    }

    /// Tasks still queued (only nonzero when every worker retired).
    fn remaining(&self) -> usize {
        let queued: usize = self
            .deques
            .iter()
            .map(|d| d.lock().expect("deque poisoned").len())
            .sum();
        queued + self.injector.lock().expect("injector poisoned").len()
    }
}

/// A fixed-size work-stealing pool. Threads are scoped per [`Pool::run`]
/// call; the struct only carries the worker count.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// Whether the task closure has any way to enqueue further tasks
    /// into this run. **This constant is load-bearing**: the worker loop
    /// terminates the moment a queue scan comes up empty, which is only
    /// sound while no new task can appear after that scan. Anyone adding
    /// a spawn API (`TaskCtx::spawn`, a handle cloned into closures, …)
    /// must flip this to `true` — and the regression test that asserts
    /// it is `false` will then fail, pointing at the two places that
    /// must change first: `Shared::next_task`'s `None` arm needs an
    /// in-flight task count (empty queues + nonzero in-flight = spin or
    /// park, not exit), and retirement/cancellation accounting in
    /// [`PoolStats::unrun`] must count tasks spawned but never queued.
    pub const TASKS_CAN_SPAWN: bool = false;

    /// A pool with `workers ≥ 1` workers.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker required");
        Pool { workers }
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every task, returning the results **in task order** plus the
    /// run's statistics.
    ///
    /// * `init(w)` builds worker `w`'s private state on the worker's own
    ///   thread (it never crosses threads — e.g. a database connection
    ///   bound to that worker's client identity).
    /// * `run_task(state, ctx, task)` executes one task and says whether
    ///   the worker should keep going ([`Verdict`]).
    ///
    /// A result slot is `None` only if its task was never executed, which
    /// can happen only when every worker retired first (see
    /// [`PoolStats::unrun`]).
    pub fn run<T, W, R, I, F>(&self, tasks: Vec<T>, init: I, run_task: F) -> (Vec<Option<R>>, PoolStats)
    where
        T: Send,
        R: Send,
        I: Fn(usize) -> W + Sync,
        F: Fn(&mut W, &TaskCtx, T) -> (R, Verdict) + Sync,
    {
        self.run_cancellable(tasks, init, run_task, None)
    }

    /// [`Pool::run`] with a cooperative cancellation flag: a worker checks
    /// `cancel` before dequeuing each task and stops taking tasks once it
    /// reads `true` (the task it is currently inside finishes normally —
    /// cancellation never discards completed work). Abandoned tasks are
    /// reported in [`PoolStats::unrun`] and their result slots stay
    /// `None`; [`PoolStats::cancelled`] records whether the flag was set.
    ///
    /// The flag is shared: task closures may hold a reference to the same
    /// `AtomicBool` and set it mid-run (that is how a stopped crawl shard
    /// halts its in-flight peers).
    pub fn run_cancellable<T, W, R, I, F>(
        &self,
        tasks: Vec<T>,
        init: I,
        run_task: F,
        cancel: Option<&AtomicBool>,
    ) -> (Vec<Option<R>>, PoolStats)
    where
        T: Send,
        R: Send,
        I: Fn(usize) -> W + Sync,
        F: Fn(&mut W, &TaskCtx, T) -> (R, Verdict) + Sync,
    {
        let n = tasks.len();
        let shared = Shared::seed(self.workers, tasks);
        let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
        // Workers line up before taking tasks, so a fast-spawning worker
        // does not raid a slow-spawning peer's seeded deque before the
        // peer has had any chance to start.
        let start_line = Barrier::new(self.workers);
        let began = Instant::now();

        let per_worker: Vec<WorkerStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|w| {
                    let (shared, results, start_line) = (&shared, &results, &start_line);
                    let (init, run_task) = (&init, &run_task);
                    scope.spawn(move || {
                        let mut state = init(w);
                        start_line.wait();
                        work(w, shared, results, &mut state, run_task, cancel)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        });

        let stats = PoolStats {
            workers: self.workers,
            wall: began.elapsed(),
            per_worker,
            unrun: shared.remaining(),
            cancelled: cancel.is_some_and(|c| c.load(Ordering::Acquire)),
        };
        (results.into_inner().expect("results poisoned"), stats)
    }
}

/// Runs every task on the **calling thread** as a one-worker pool whose
/// private state is `state`: the same dealing (task 0 seeded, the rest
/// from the injector in task order), retirement, cancellation, and
/// statistics as `Pool::new(1).run_cancellable`, minus the thread. Since
/// nothing crosses threads, neither the tasks, the results, the state
/// nor the closure need to be `Send`/`Sync` — this is how a caller that
/// holds a single borrowed, thread-bound resource (one database
/// connection) drives the same task loop as the pool.
pub fn run_inline<T, W, R, F>(
    tasks: Vec<T>,
    state: &mut W,
    run_task: F,
    cancel: Option<&AtomicBool>,
) -> (Vec<Option<R>>, PoolStats)
where
    F: Fn(&mut W, &TaskCtx, T) -> (R, Verdict),
{
    let n = tasks.len();
    let shared = Shared::seed(1, tasks);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let began = Instant::now();
    let stats = work(0, &shared, &results, state, &run_task, cancel);
    let stats = PoolStats {
        workers: 1,
        wall: began.elapsed(),
        per_worker: vec![stats],
        unrun: shared.remaining(),
        cancelled: cancel.is_some_and(|c| c.load(Ordering::Acquire)),
    };
    (results.into_inner().expect("results poisoned"), stats)
}

/// Worker `w`'s task loop: take tasks until the queues drain, the
/// worker retires, or `cancel` latches.
fn work<T, W, R, F>(
    w: usize,
    shared: &Shared<T>,
    results: &Mutex<Vec<Option<R>>>,
    state: &mut W,
    run_task: &F,
    cancel: Option<&AtomicBool>,
) -> WorkerStats
where
    F: Fn(&mut W, &TaskCtx, T) -> (R, Verdict),
{
    let mut stats = WorkerStats::default();
    while !cancel.is_some_and(|c| c.load(Ordering::Acquire)) {
        let Some((index, task, source)) = shared.next_task(w) else {
            break;
        };
        let ctx = TaskCtx {
            worker: w,
            index,
            source,
        };
        let t0 = Instant::now();
        let (result, verdict) = run_task(state, &ctx, task);
        stats.busy += t0.elapsed();
        stats.executed += 1;
        match source {
            Source::Seeded => stats.seeded += 1,
            Source::Injected => stats.injected += 1,
            Source::Stolen { .. } => stats.stolen += 1,
        }
        results.lock().expect("results poisoned")[index] = Some(result);
        if verdict == Verdict::Retire {
            stats.retired = true;
            break;
        }
        // Give peers a scheduling opportunity between tasks. On a single
        // hardware thread a worker running CPU-bound tasks back to back
        // would otherwise drain queues — including peers' seeded deques —
        // before those peers ever run, concentrating the whole load on
        // one identity. (Irrelevant when tasks block on I/O or cores
        // outnumber workers.)
        std::thread::yield_now();
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = Pool::new(3);
        let tasks: Vec<u64> = (0..20).collect();
        let (results, stats) = pool.run(
            tasks,
            |_w| (),
            |_state, _ctx, t| (t * 10, Verdict::Continue),
        );
        let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
        let want: Vec<u64> = (0..20).map(|t| t * 10).collect();
        assert_eq!(got, want);
        assert_eq!(stats.executed(), 20);
        assert_eq!(stats.unrun, 0);
        // Every execution is attributed to exactly one acquisition path.
        for w in &stats.per_worker {
            assert_eq!(w.executed, w.seeded + w.injected + w.stolen);
        }
    }

    #[test]
    fn single_worker_runs_everything_in_seed_then_fifo_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        let (results, stats) = pool.run(
            (0..5).collect::<Vec<usize>>(),
            |_w| (),
            |_s, ctx, t| {
                order.lock().unwrap().push(t);
                (ctx.index, Verdict::Continue)
            },
        );
        // Task 0 is seeded; 1..5 drain from the injector FIFO.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(results.iter().all(|r| r.is_some()));
        assert_eq!(stats.per_worker[0].seeded, 1);
        assert_eq!(stats.per_worker[0].injected, 4);
    }

    #[test]
    fn imbalance_is_absorbed_by_the_injector() {
        // Worker 0's seeded task sleeps; the other worker must drain the
        // injector meanwhile. (Sleeps overlap even on one core.)
        let pool = Pool::new(2);
        let tasks: Vec<u64> = vec![100, 0, 0, 0, 0, 0, 0, 0];
        let (results, stats) = pool.run(
            tasks,
            |_w| (),
            |_s, _ctx, millis| {
                std::thread::sleep(Duration::from_millis(millis));
                (millis, Verdict::Continue)
            },
        );
        assert!(results.iter().all(|r| r.is_some()));
        // The non-sleeping worker handled (at least) the 6 injector tasks.
        let max_executed = stats.per_worker.iter().map(|w| w.executed).max().unwrap();
        assert!(max_executed >= 6, "injector did not balance: {stats:?}");
    }

    #[test]
    fn steal_path_takes_a_peers_coldest_task() {
        // Exercise next_task directly: worker 1 has nothing, worker 0's
        // deque holds two unstarted tasks; worker 1 steals the FIFO end
        // (task 0), while owner pops LIFO (task 2).
        let shared = Shared::seed(2, vec!['a', 'b', 'c', 'd']);
        // Move task 2 ('c') from the injector into worker 0's deque to
        // model a deque with depth > 1.
        let entry = shared.injector.lock().unwrap().pop_front().unwrap();
        shared.deques[0].lock().unwrap().push_back(entry);
        shared.deques[1].lock().unwrap().clear();
        shared.injector.lock().unwrap().clear();

        let (i, t, src) = shared.next_task(1).unwrap();
        assert_eq!((i, t), (0, 'a'), "thief takes the oldest task");
        assert_eq!(src, Source::Stolen { from: 0 });
        let (i, t, src) = shared.next_task(0).unwrap();
        assert_eq!((i, t), (2, 'c'), "owner pops its newest task");
        assert_eq!(src, Source::Seeded);
        assert!(shared.next_task(0).is_none());
    }

    #[test]
    fn retired_workers_leave_their_share_to_peers() {
        // Worker 0 retires on its first task; worker 1 must finish all
        // remaining tasks.
        let pool = Pool::new(2);
        let (results, stats) = pool.run(
            (0..8).collect::<Vec<usize>>(),
            |w| w,
            |me, _ctx, t| {
                let verdict = if *me == 0 { Verdict::Retire } else { Verdict::Continue };
                (t, verdict)
            },
        );
        assert_eq!(stats.unrun, 0);
        assert!(results.iter().all(|r| r.is_some()));
        // Worker 0 runs at most one task (it retires right after); worker 1
        // picks up everything else.
        assert!(stats.per_worker[0].executed <= 1);
        assert!(stats.per_worker[1].executed >= 7);
        assert_eq!(stats.executed(), 8);
    }

    #[test]
    fn all_workers_retired_reports_unrun_tasks() {
        let pool = Pool::new(1);
        let (results, stats) = pool.run(
            (0..5).collect::<Vec<usize>>(),
            |_w| (),
            |_s, _ctx, t| (t, Verdict::Retire),
        );
        assert_eq!(stats.unrun, 4);
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 1);
        assert!(stats.per_worker[0].retired);
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let pool = Pool::new(8);
        let (results, stats) = pool.run(
            vec![1u32, 2],
            |_w| (),
            |_s, _ctx, t| (t, Verdict::Continue),
        );
        assert!(results.iter().all(|r| r.is_some()));
        assert_eq!(stats.executed(), 2);
        assert!(stats.idle_workers() >= 6);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        Pool::new(0);
    }

    /// Tripwire for the empty-scan termination contract (see the module
    /// docs and [`Pool::TASKS_CAN_SPAWN`]). The worker loop exits the
    /// first time it finds every queue empty, which silently drops work
    /// the moment tasks can spawn tasks: a worker that finishes its scan
    /// between a peer's dequeue and that peer's spawn exits early, and
    /// if every worker does, spawned tasks are stranded with their
    /// result slots `None` and no error. If you are reading this because
    /// the assert below fired: do NOT weaken this test. Add an in-flight
    /// count to `Shared` (incremented at dequeue, decremented after the
    /// closure returns, `next_task` returning `None` only when queues
    /// are empty AND in-flight is zero), fix `unrun` accounting for
    /// spawned-but-abandoned tasks, then update this test to cover the
    /// spawn path.
    #[test]
    #[allow(clippy::assertions_on_constants)] // constant on purpose: it is the tripwire
    fn termination_contract_requires_no_task_spawning() {
        assert!(
            !Pool::TASKS_CAN_SPAWN,
            "Pool::TASKS_CAN_SPAWN was flipped to true, but the worker \
             loop still exits on the first empty queue scan — spawned \
             tasks would be silently stranded. Read the doc comment on \
             this test before changing anything."
        );
    }

    /// Termination stress: many short runs with adversarial shapes
    /// (more workers than tasks, zero tasks, heavy imbalance) must all
    /// terminate and account for every task. A deadlock here hangs the
    /// test; lost work trips the accounting asserts.
    #[test]
    fn every_run_terminates_with_full_accounting() {
        for workers in [1usize, 2, 3, 7] {
            for tasks in [0usize, 1, 2, workers, workers * 3 + 1] {
                let pool = Pool::new(workers);
                let (results, stats) = pool.run(
                    (0..tasks).collect::<Vec<usize>>(),
                    |_w| (),
                    |_s, ctx, t| {
                        // Uneven task costs: some yield, some spin.
                        if t.is_multiple_of(3) {
                            std::thread::yield_now();
                        }
                        (ctx.index, Verdict::Continue)
                    },
                );
                assert_eq!(results.len(), tasks);
                assert!(
                    results.iter().all(|r| r.is_some()),
                    "lost results at workers={workers} tasks={tasks}"
                );
                assert_eq!(
                    stats.executed(),
                    tasks as u64,
                    "execution count off at workers={workers} tasks={tasks}"
                );
                assert_eq!(stats.unrun, 0);
            }
        }
    }

    #[test]
    fn inline_run_matches_a_one_worker_pool() {
        // A non-Send state (Rc) is fine: nothing leaves the thread.
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut state = std::rc::Rc::clone(&log);
        let (results, stats) = run_inline(
            (0..5).collect::<Vec<usize>>(),
            &mut state,
            |log, ctx, t| {
                log.borrow_mut().push(t);
                let verdict = if t == 3 {
                    Verdict::Retire
                } else {
                    Verdict::Continue
                };
                (ctx.index, verdict)
            },
            None,
        );
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 4);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.per_worker[0].seeded, 1);
        assert_eq!(stats.per_worker[0].injected, 3);
        assert!(stats.per_worker[0].retired);
        assert_eq!(stats.unrun, 1);
    }

    #[test]
    fn pre_set_cancel_flag_runs_nothing() {
        let pool = Pool::new(2);
        let cancel = AtomicBool::new(true);
        let (results, stats) = pool.run_cancellable(
            (0..6).collect::<Vec<usize>>(),
            |_w| (),
            |_s, _ctx, t| (t, Verdict::Continue),
            Some(&cancel),
        );
        assert!(results.iter().all(|r| r.is_none()));
        assert_eq!(stats.executed(), 0);
        assert_eq!(stats.unrun, 6);
        assert!(stats.cancelled);
    }

    #[test]
    fn mid_run_cancel_keeps_completed_work() {
        // A single worker cancels the run from inside the second task:
        // both finished tasks keep their results, the rest are abandoned.
        let pool = Pool::new(1);
        let cancel = AtomicBool::new(false);
        let (results, stats) = pool.run_cancellable(
            (0..8).collect::<Vec<usize>>(),
            |_w| (),
            |_s, ctx, t| {
                if ctx.index == 1 {
                    cancel.store(true, Ordering::Release);
                }
                (t, Verdict::Continue)
            },
            Some(&cancel),
        );
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 2);
        assert_eq!(stats.executed(), 2);
        assert_eq!(stats.unrun, 6);
        assert!(stats.cancelled);
    }

    #[test]
    fn uncancelled_runs_report_cancelled_false() {
        let pool = Pool::new(2);
        let (_, stats) = pool.run(
            (0..4).collect::<Vec<usize>>(),
            |_w| (),
            |_s, _ctx, t| (t, Verdict::Continue),
        );
        assert!(!stats.cancelled);
    }
}
