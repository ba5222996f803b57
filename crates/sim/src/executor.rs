//! The shared parallel executor: fans independent cells, or chains of
//! dependent stages, out across worker threads.
//!
//! A *cell* is a self-contained closure — a figure measurement that
//! builds its own fresh device, or one fleet device's epoch over state
//! only it touches. Cells never share mutable state, so they are
//! embarrassingly parallel; the executor schedules them over a scoped
//! thread pool and returns results **in the cells' original order**,
//! which keeps parallel runs byte-identical to sequential ones (each
//! cell's virtual-time schedule is fully determined by its own inputs).
//! Because the pool is scoped, cells may borrow from the caller's stack,
//! including disjoint `&mut` borrows.
//!
//! The width comes from [`Executor::from_env`]: one worker per available
//! core, overridable with `UC_THREADS`.
//!
//! # Example
//!
//! ```
//! use uc_sim::Executor;
//!
//! let cells: Vec<_> = (0..8).map(|i| move || i * i).collect();
//! let parallel = Executor::with_threads(4).run(cells.clone());
//! let sequential = Executor::sequential().run(cells);
//! assert_eq!(parallel, sequential);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Runs independent jobs across a fixed number of worker threads,
/// preserving result order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor that runs every cell inline on the calling thread.
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// An executor with exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The default executor: one worker per available core, overridable
    /// with the `UC_THREADS` environment variable (`UC_THREADS=1` forces
    /// the sequential path).
    pub fn from_env() -> Self {
        let threads = std::env::var("UC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Executor::with_threads(threads)
    }

    /// Number of worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every cell and returns their results in the input order.
    ///
    /// Scheduling is work-stealing over a shared index, so thread count
    /// and interleaving never affect *which* work a cell does — only
    /// where it runs. A panicking cell propagates the panic to the caller
    /// once the scope joins.
    pub fn run<F, R>(&self, cells: Vec<F>) -> Vec<R>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        if self.threads <= 1 || cells.len() <= 1 {
            return cells.into_iter().map(|cell| cell()).collect();
        }
        let workers = self.threads.min(cells.len());
        let jobs: Vec<Mutex<Option<F>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let cell = job
                        .lock()
                        .expect("job mutex")
                        .take()
                        .expect("cell taken once");
                    let result = cell();
                    *slots[index].lock().expect("slot mutex") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot mutex")
                    .expect("every cell ran")
            })
            .collect()
    }
}

/// One chain in [`Executor::run_chains`]: the evolving state plus the
/// stages still to run on it.
struct Chain<S, F> {
    state: Option<S>,
    stages: VecDeque<F>,
}

/// Shared scheduler state for [`Executor::run_chains`].
struct ChainSched {
    ready: VecDeque<usize>,
    finished: usize,
    aborted: bool,
}

impl Executor {
    /// Runs several independent *chains* of stages, pipelined across the
    /// workers, and returns each chain's final state in input order.
    ///
    /// A chain is `(initial_state, stages)`: stage `k` consumes the state
    /// stage `k-1` produced, so stages of one chain are strictly
    /// sequential — but stages of *different* chains interleave freely.
    /// This is the dataflow of the segmented Figure 3 endurance run:
    /// segment `k` of device A executes concurrently with segment `k-1`
    /// of device B, each feeding its checkpoint forward. Scheduling is
    /// work-conserving at stage granularity (a worker always picks up any
    /// ready chain), so wall clock is bounded by
    /// `max(longest chain, total stage work / workers)` instead of
    /// whole-chains-per-worker — and, because each chain's stages run in
    /// a fixed order on state only they touch, results are identical at
    /// any thread count.
    ///
    /// A panicking stage aborts the run and propagates the panic once the
    /// scope joins.
    pub fn run_chains<S, F>(&self, chains: Vec<(S, Vec<F>)>) -> Vec<S>
    where
        S: Send,
        F: FnOnce(S) -> S + Send,
    {
        if self.threads <= 1 || chains.len() <= 1 {
            return chains
                .into_iter()
                .map(|(state, stages)| stages.into_iter().fold(state, |s, stage| stage(s)))
                .collect();
        }
        let total = chains.len();
        let slots: Vec<Mutex<Chain<S, F>>> = chains
            .into_iter()
            .map(|(state, stages)| {
                Mutex::new(Chain {
                    state: Some(state),
                    stages: stages.into_iter().collect(),
                })
            })
            .collect();
        // Chains with no stages are born finished; only the rest queue.
        let ready: VecDeque<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.lock().expect("chain mutex").stages.is_empty())
            .map(|(i, _)| i)
            .collect();
        let finished = total - ready.len();
        let sched = Mutex::new(ChainSched {
            ready,
            finished,
            aborted: false,
        });
        let wakeup = Condvar::new();
        let workers = self.threads.min(total);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = {
                        let mut s = sched.lock().expect("scheduler mutex");
                        loop {
                            if s.aborted || s.finished == total {
                                return;
                            }
                            if let Some(index) = s.ready.pop_front() {
                                break index;
                            }
                            s = wakeup.wait(s).expect("scheduler condvar");
                        }
                    };
                    let (state, stage, last) = {
                        let mut chain = slots[index].lock().expect("chain mutex");
                        let state = chain.state.take().expect("state present when scheduled");
                        let stage = chain.stages.pop_front().expect("ready chain has a stage");
                        (state, stage, chain.stages.is_empty())
                    };
                    // If the stage panics, unblock the other workers so the
                    // scope can join and propagate the panic.
                    struct Abort<'a> {
                        sched: &'a Mutex<ChainSched>,
                        wakeup: &'a Condvar,
                        armed: bool,
                    }
                    impl Drop for Abort<'_> {
                        fn drop(&mut self) {
                            if self.armed {
                                if let Ok(mut s) = self.sched.lock() {
                                    s.aborted = true;
                                }
                                self.wakeup.notify_all();
                            }
                        }
                    }
                    let mut guard = Abort {
                        sched: &sched,
                        wakeup: &wakeup,
                        armed: true,
                    };
                    let next = stage(state);
                    guard.armed = false;
                    slots[index].lock().expect("chain mutex").state = Some(next);
                    let mut s = sched.lock().expect("scheduler mutex");
                    if last {
                        s.finished += 1;
                        if s.finished == total {
                            drop(s);
                            wakeup.notify_all();
                        }
                    } else {
                        s.ready.push_back(index);
                        drop(s);
                        wakeup.notify_one();
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("chain mutex")
                    .state
                    .expect("every chain ran to completion")
            })
            .collect()
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}
