//! Durable runs: one checkpoint store and one resumable-chain driver for
//! every long experiment.
//!
//! fig3's endurance runs, the trace experiment's replays and the fleet
//! are each one continuous virtual timeline cut into *steps* (segments,
//! phases, epochs). An experiment describes one timeline as a [`Chain`];
//! [`run`] drives any number of chains pipelined across an [`Executor`],
//! carrying each chain's **live** state from step to step and — only when
//! given a [`Store`] — freezing a [`DurableRecord`] to disk at every step
//! boundary. [`round_trip`] instead freezes and thaws one chain at every
//! step: it keeps the checkpoint seam exercised and is the reference the
//! live driver is tested against. Both produce byte-identical output.
//!
//! # On-disk layout
//!
//! A store is one directory. Each chain owns a file-stem *key*
//! (`fig3-<device>`, `trace-<device>`, `fleet`) and writes
//! `<key>.seg<step>.ckpt` record files (atomically: temp file + rename):
//!
//! * a fresh run first deletes every file of its keys, then saves its
//!   primed step-0 state, so a crash before the first boundary resumes
//!   instead of re-priming and no earlier invocation's files survive;
//! * once a new file is renamed into place, every other step of that key
//!   is pruned, so the directory holds one file per key;
//! * `--resume` scans newest → oldest and continues from the first file
//!   that decodes cleanly *and* was taken under the current plan — a torn
//!   or stale-plan file is reported and scanned past, never continued;
//! * the crash hook ([`Store::with_kill_after`]) exits the process with
//!   code 42 right after the n-th save; [`Chain::before_kill`] runs just
//!   before that save (the fleet dumps its telemetry to
//!   [`Store::obs_dump_path`] there).

use crate::experiments::Executor;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use uc_blockdev::{CheckpointError, PersistError};
use uc_persist::{DecodeError, Decoder, Encoder};

/// A checkpoint that can be persisted as a self-describing record file.
pub trait DurableRecord: Sized {
    /// The on-disk record kind tag. Bump the suffix when the layout
    /// changes.
    const RECORD_KIND: &'static str;

    /// Appends this record's wire form to `w`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NotPersistent`] if an embedded device
    /// checkpoint carries no persistence codec (roster- and pool-built
    /// devices always do).
    fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError>;

    /// Parses a record back out of its wire form.
    ///
    /// # Errors
    ///
    /// Returns a typed [`DecodeError`] on any malformed input.
    fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// The file-stem key of the chain this record belongs to.
    fn key(&self) -> String;

    /// Steps the chain had completed when this record was taken.
    fn step(&self) -> usize;

    /// Writes this record to `path` (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on codec-less payloads or filesystem
    /// failures.
    fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        uc_persist::write_record_file(path, Self::RECORD_KIND, |w| self.encode_into(w))
    }

    /// Reads a record back from a file written by
    /// [`DurableRecord::save_to`].
    ///
    /// # Errors
    ///
    /// Every failure — unreadable file, foreign bytes, truncation,
    /// flipped bits, future format version, another record kind — is a
    /// typed [`DecodeError`], never a panic.
    fn load_from(path: &Path) -> Result<Self, DecodeError> {
        let payload = uc_persist::read_record_file(path, Self::RECORD_KIND)?;
        let mut r = Decoder::new(&payload);
        let record = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(record)
    }
}

/// One resumable timeline: how to prime, step, freeze, thaw and finish
/// it. Implementations borrow their context (roster, config, trace), so
/// every stage shares it and nothing is copied per step.
pub trait Chain: Sync {
    /// The live run between steps.
    type State: Send;
    /// The frozen run, as persisted.
    type Record: DurableRecord;
    /// What a step can fail with.
    type Error: Send;
    /// The finished run's result.
    type Output;

    /// The file-stem key of this chain's checkpoints.
    fn key(&self) -> String;
    /// Total steps in the plan.
    fn steps(&self) -> usize;
    /// Primes a fresh run (step 0).
    ///
    /// # Errors
    ///
    /// Returns the experiment's error if the run cannot be primed.
    fn start(&self) -> Result<Self::State, Self::Error>;
    /// Runs one step.
    ///
    /// # Errors
    ///
    /// Returns the experiment's error (typically device I/O).
    fn advance(&self, state: &mut Self::State) -> Result<(), Self::Error>;
    /// Freezes the run between steps.
    fn checkpoint(&self, state: &Self::State) -> Self::Record;
    /// Thaws a frozen run.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the record does not restore onto
    /// the devices this chain builds.
    fn resume(&self, record: Self::Record) -> Result<Self::State, CheckpointError>;
    /// `true` if `record` was taken under this chain's exact plan and can
    /// continue it.
    fn matches(&self, record: &Self::Record) -> bool;
    /// Consumes the finished run.
    fn finish(&self, state: Self::State) -> Self::Output;
    /// Called right before the save that trips the store's crash hook.
    fn before_kill(&self, _state: &Self::State, _store: &Store<Self::Record>) {}
}

/// Errors of a durable run.
#[derive(Debug)]
pub enum RunError<E> {
    /// A step failed (device I/O, trace validation).
    Step(E),
    /// Writing a checkpoint to disk failed.
    Save(PersistError),
    /// A checkpoint does not restore onto the devices this run builds
    /// (e.g. one taken at another `--scale`).
    Restore(CheckpointError),
}

impl<E> RunError<E> {
    /// The step error of a run that neither saves nor thaws ([`run`]
    /// without a store).
    ///
    /// # Panics
    ///
    /// Panics on a save or restore error.
    pub fn into_step(self) -> E {
        match self {
            RunError::Step(e) => e,
            RunError::Save(e) => panic!("storeless run saved a checkpoint: {e}"),
            RunError::Restore(e) => panic!("storeless run restored a checkpoint: {e}"),
        }
    }
}

impl<E: std::fmt::Display> std::fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Step(e) => write!(f, "{e}"),
            RunError::Save(e) => write!(f, "persisting checkpoint: {e}"),
            RunError::Restore(e) => write!(f, "restoring checkpoint: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for RunError<E> {}

/// A directory of durable checkpoints (see the [module docs](self) for
/// file naming, pruning and the resume scan). `Sync`: the driver's worker
/// threads share it.
#[derive(Debug)]
pub struct Store<R> {
    dir: PathBuf,
    resume: bool,
    kill_after: Option<u64>,
    saves: AtomicU64,
    record: PhantomData<fn() -> R>,
}

impl<R: DurableRecord> Store<R> {
    /// Opens (creating if needed) a checkpoint directory for a fresh run.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be
    /// created.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            resume: false,
            kill_after: None,
            saves: AtomicU64::new(0),
            record: PhantomData,
        })
    }

    /// With `resume`, [`run`] continues each chain from its newest valid
    /// checkpoint instead of starting fresh.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Crash-testing hook: terminate the *process* (exit code 42)
    /// immediately after the `n`-th successful save — no destructors run
    /// and nothing further is written, the closest deterministic stand-in
    /// for `kill -9`. Never set in normal operation.
    pub fn with_kill_after(mut self, saves: u64) -> Self {
        self.kill_after = Some(saves);
        self
    }

    /// The directory holding the checkpoint files.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints saved through this store so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Where a crash-hook telemetry dump lands (`crash.obs`).
    pub fn obs_dump_path(&self) -> PathBuf {
        self.dir.join("crash.obs")
    }

    /// `true` if the *next* successful save will trip the crash hook.
    /// Exact for a single chain; with several chains saving concurrently
    /// it is only a hint.
    pub(crate) fn kill_imminent(&self) -> bool {
        self.kill_after
            .is_some_and(|limit| self.saves() + 1 >= limit)
    }

    /// The file path of `key`'s checkpoint at `step`.
    pub(crate) fn step_path(&self, key: &str, step: usize) -> PathBuf {
        self.dir.join(format!("{key}.seg{step:04}.ckpt"))
    }

    /// Persists `record`, prunes every other step of its key, and returns
    /// the new file's path.
    ///
    /// # Errors
    ///
    /// Propagates [`PersistError`] from the underlying save.
    pub fn save(&self, record: &R) -> Result<PathBuf, PersistError> {
        let key = record.key();
        let path = self.step_path(&key, record.step());
        record.save_to(&path)?;
        self.prune(&key, Some(record.step()));
        let saved = self.saves.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.kill_after.filter(|&limit| saved >= limit) {
            eprintln!(
                "{key}: simulated crash after {saved} checkpoint save(s) (--kill-after {limit})"
            );
            std::process::exit(42);
        }
        Ok(path)
    }

    /// Steps of `key` present on disk, ascending.
    fn steps(&self, key: &str) -> Vec<usize> {
        let prefix = format!("{key}.seg");
        let mut found: Vec<usize> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name().into_string().ok()?;
                name.strip_prefix(&prefix)?
                    .strip_suffix(".ckpt")?
                    .parse()
                    .ok()
            })
            .collect();
        found.sort_unstable();
        found
    }

    /// Deletes `key`'s files except step `keep`. Best-effort: deletion
    /// errors are ignored (the next save retries).
    fn prune(&self, key: &str, keep: Option<usize>) {
        for step in self.steps(key) {
            if Some(step) != keep {
                let _ = std::fs::remove_file(self.step_path(key, step));
            }
        }
    }

    /// Loads `key`'s newest checkpoint that decodes cleanly and satisfies
    /// `accept`, scanning newest → oldest. Torn, foreign and stale-plan
    /// files are reported on stderr and scanned *past*, so a stale higher
    /// step never shadows an older one that matches.
    pub fn latest_matching(&self, key: &str, accept: impl Fn(&R) -> bool) -> Option<R> {
        for step in self.steps(key).into_iter().rev() {
            let path = self.step_path(key, step);
            match R::load_from(&path) {
                Ok(record) if record.key() != key => eprintln!(
                    "{key}: ignoring {} (belongs to {})",
                    path.display(),
                    record.key()
                ),
                Ok(record) if accept(&record) => return Some(record),
                Ok(_) => eprintln!(
                    "{key}: ignoring {} (taken under a different plan); trying older steps",
                    path.display()
                ),
                Err(e) => eprintln!("{key}: ignoring {}: {e}", path.display()),
            }
        }
        None
    }
}

/// Saves `state`'s checkpoint, giving the chain its last word first if
/// this save trips the crash hook.
fn save<C: Chain>(
    chain: &C,
    state: &C::State,
    store: &Store<C::Record>,
) -> Result<(), RunError<C::Error>> {
    if store.kill_imminent() {
        chain.before_kill(state, store);
    }
    store
        .save(&chain.checkpoint(state))
        .map(drop)
        .map_err(RunError::Save)
}

/// The state a chain starts from and the steps it has already done:
/// thawed from `store` when resuming onto a matching checkpoint, else
/// primed fresh (and, durably, saved as step 0 after clearing the key).
fn prime<C: Chain>(
    chain: &C,
    store: Option<&Store<C::Record>>,
) -> Result<(C::State, usize), RunError<C::Error>> {
    let Some(store) = store else {
        return Ok((chain.start().map_err(RunError::Step)?, 0));
    };
    let key = chain.key();
    if store.resume {
        if let Some(record) = store.latest_matching(&key, |r| chain.matches(r)) {
            let done = record.step();
            eprintln!("{key}: resuming from step {done}/{}", chain.steps());
            return Ok((chain.resume(record).map_err(RunError::Restore)?, done));
        }
    }
    store.prune(&key, None);
    let state = chain.start().map_err(RunError::Step)?;
    save(chain, &state, store)?;
    Ok((state, 0))
}

/// Runs every chain to completion, pipelined across `exec`'s workers
/// ([`Executor::run_chains`]): step `k` of one chain runs concurrently
/// with step `k-1` of another. Each chain's live state is handed from
/// step to step; with a `store`, every boundary is also checkpointed to
/// disk (and with [`Store::with_resume`], chains continue from disk).
///
/// Results are returned in `chains` order and are byte-identical to
/// [`round_trip`]'s at any thread count, with or without a store, and
/// across any kill-and-resume.
///
/// # Errors
///
/// Returns the first step error, save failure or restore mismatch any
/// chain hits.
pub fn run<C: Chain>(
    chains: &[C],
    exec: &Executor,
    store: Option<&Store<C::Record>>,
) -> Result<Vec<C::Output>, RunError<C::Error>> {
    let mut work = Vec::with_capacity(chains.len());
    for chain in chains {
        let (initial, done) = match prime(chain, store) {
            Ok((state, done)) => (Ok(state), done),
            Err(e) => (Err(e), chain.steps()),
        };
        let stages: Vec<_> = (done..chain.steps())
            .map(|_| {
                move |state: Result<C::State, RunError<C::Error>>| {
                    let mut state = state?;
                    chain.advance(&mut state).map_err(RunError::Step)?;
                    if let Some(store) = store {
                        save(chain, &state, store)?;
                    }
                    Ok(state)
                }
            })
            .collect();
        work.push((initial, stages));
    }
    exec.run_chains(work)
        .into_iter()
        .zip(chains)
        .map(|(state, chain)| Ok(chain.finish(state?)))
        .collect()
}

/// Runs one chain on the calling thread, freezing and thawing it before
/// every step — the checkpoint seam's end-to-end check and the reference
/// [`run`] is compared against.
///
/// # Errors
///
/// Returns the first step error, or [`RunError::Restore`] if the chain's
/// own checkpoint fails to thaw (a seam bug).
pub fn round_trip<C: Chain>(chain: &C) -> Result<C::Output, RunError<C::Error>> {
    let mut state = chain.start().map_err(RunError::Step)?;
    for _ in 0..chain.steps() {
        state = chain
            .resume(chain.checkpoint(&state))
            .map_err(RunError::Restore)?;
        chain.advance(&mut state).map_err(RunError::Step)?;
    }
    Ok(chain.finish(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    /// A frozen [`Count`] run: the whole state fits in the record.
    #[derive(Debug, Clone, PartialEq)]
    struct Tally {
        key: String,
        plan: u32,
        step: usize,
        sum: u64,
    }

    impl DurableRecord for Tally {
        const RECORD_KIND: &'static str = "uc.test-tally.v1";

        fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError> {
            w.put_str(&self.key);
            w.put_u32(self.plan);
            self.step.encode(w);
            w.put_u64(self.sum);
            Ok(())
        }

        fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
            Ok(Tally {
                key: r.get_string()?,
                plan: r.get_u32()?,
                step: usize::decode(r)?,
                sum: r.get_u64()?,
            })
        }

        fn key(&self) -> String {
            self.key.clone()
        }

        fn step(&self) -> usize {
            self.step
        }
    }

    /// An order-sensitive toy timeline: each step folds its index into a
    /// running hash, so a skipped, repeated or reordered step shows.
    struct Count {
        key: &'static str,
        plan: u32,
        steps: usize,
    }

    impl Chain for Count {
        type State = Tally;
        type Record = Tally;
        type Error = String;
        type Output = u64;

        fn key(&self) -> String {
            self.key.to_string()
        }
        fn steps(&self) -> usize {
            self.steps
        }
        fn start(&self) -> Result<Tally, String> {
            Ok(Tally {
                key: self.key(),
                plan: self.plan,
                step: 0,
                sum: self.plan as u64,
            })
        }
        fn advance(&self, state: &mut Tally) -> Result<(), String> {
            if self.plan == 0xBAD && state.step == 2 {
                return Err("step 2 failed".to_string());
            }
            state.step += 1;
            state.sum = state.sum.wrapping_mul(6364136223846793005) ^ state.step as u64;
            Ok(())
        }
        fn checkpoint(&self, state: &Tally) -> Tally {
            state.clone()
        }
        fn resume(&self, record: Tally) -> Result<Tally, CheckpointError> {
            if self.plan == 0xDEAD {
                return Err(CheckpointError::DeviceMismatch {
                    expected: self.key(),
                    found: record.key,
                });
            }
            Ok(record)
        }
        fn matches(&self, record: &Tally) -> bool {
            record.plan == self.plan
        }
        fn finish(&self, state: Tally) -> u64 {
            assert_eq!(state.step, self.steps, "every step ran exactly once");
            state.sum
        }
    }

    fn chains(plan: u32, steps: usize) -> Vec<Count> {
        ["a", "b", "c"]
            .into_iter()
            .map(|key| Count { key, plan, steps })
            .collect()
    }

    fn store(name: &str) -> Store<Tally> {
        let dir = std::env::temp_dir()
            .join("uc-durable-tests")
            .join(format!("{name}-{}", std::process::id()));
        // Stale files from a previous failed run would perturb resume.
        let _ = std::fs::remove_dir_all(&dir);
        Store::create(dir).expect("create store")
    }

    /// The state `chain` holds after `steps` live steps.
    fn partial(chain: &Count, steps: usize) -> Tally {
        let mut state = chain.start().unwrap();
        for _ in 0..steps {
            chain.advance(&mut state).unwrap();
        }
        state
    }

    #[test]
    fn live_driver_matches_round_trip_with_and_without_a_store() {
        let chains = chains(7, 5);
        let reference: Vec<u64> = chains.iter().map(|c| round_trip(c).unwrap()).collect();
        for threads in [1, 2, 4] {
            let exec = Executor::with_threads(threads);
            assert_eq!(run(&chains, &exec, None).unwrap(), reference);
            let store = store(&format!("live-{threads}"));
            assert_eq!(run(&chains, &exec, Some(&store)).unwrap(), reference);
            let _ = std::fs::remove_dir_all(store.path());
        }
    }

    #[test]
    fn save_prunes_every_other_step_and_counts_saves() {
        let store = store("prune");
        let chain = &chains(1, 4)[0];
        let other = chain.checkpoint(&partial(&chains(1, 4)[1], 3));
        store.save(&other).unwrap();
        for step in 0..3 {
            store.save(&partial(chain, step)).unwrap();
        }
        assert_eq!(store.steps("a"), vec![2]);
        assert_eq!(store.steps("b"), vec![3], "other keys are untouched");
        assert_eq!(store.saves(), 4);
        // A durable run saves step 0 plus every boundary of every chain.
        let store = self::store("prune-run");
        run(&chains(1, 4), &Executor::with_threads(2), Some(&store)).unwrap();
        assert_eq!(store.saves(), 3 * 5);
        for key in ["a", "b", "c"] {
            assert_eq!(store.steps(key), vec![4], "{key}: one file per key");
        }
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn fresh_run_clears_files_left_by_an_earlier_run() {
        // A completed 8-step run leaves seg0008 files; a fresh 4-step run
        // into the same directory must not keep them around for a later
        // `--resume` to pick up.
        let store = store("fresh-clears");
        run(&chains(3, 8), &Executor::sequential(), Some(&store)).unwrap();
        run(&chains(3, 4), &Executor::sequential(), Some(&store)).unwrap();
        for key in ["a", "b", "c"] {
            assert_eq!(store.steps(key), vec![4], "{key}");
        }
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn killed_run_resumes_to_identical_results() {
        let chains = chains(9, 6);
        let reference = run(&chains, &Executor::sequential(), None).unwrap();
        let store = store("kill-resume").with_resume(true);
        // Chains die at different steps; only the files survive.
        for (chain, done) in chains.iter().zip([1, 4, 6]) {
            store.save(&partial(chain, done)).unwrap();
        }
        let resumed = run(&chains, &Executor::with_threads(2), Some(&store)).unwrap();
        assert_eq!(resumed, reference);
        // 5 + 2 + 0 boundaries were left to run and save.
        assert_eq!(store.saves(), 3 + 7);
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn newest_valid_scan_falls_back_past_a_torn_file() {
        let store = store("torn");
        let chain = &chains(2, 4)[0];
        // A crash between rename and prune leaves two boundaries.
        partial(chain, 1).save_to(&store.step_path("a", 1)).unwrap();
        let newest = store.step_path("a", 2);
        partial(chain, 2).save_to(&newest).unwrap();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store
            .latest_matching("a", |_| true)
            .expect("older step survives");
        assert_eq!(latest.step, 1, "falls back past the torn file");
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn stale_higher_step_does_not_shadow_a_matching_one() {
        let store = store("stale-shadow").with_resume(true);
        let current = Count {
            key: "a",
            plan: 4,
            steps: 4,
        };
        let stale = Count {
            key: "a",
            plan: 8,
            steps: 8,
        };
        partial(&stale, 3)
            .save_to(&store.step_path("a", 3))
            .unwrap();
        partial(&current, 1)
            .save_to(&store.step_path("a", 1))
            .unwrap();
        let found = store
            .latest_matching("a", |r| current.matches(r))
            .expect("the matching older step is found");
        assert_eq!(found.step, 1);
        let resumed = run(
            std::slice::from_ref(&current),
            &Executor::sequential(),
            Some(&store),
        );
        assert_eq!(resumed.unwrap(), vec![round_trip(&current).unwrap()]);
        // Resuming from step 1 saved steps 2..=4: the stale file is gone.
        assert_eq!(store.saves(), 3);
        assert_eq!(store.steps("a"), vec![4]);
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn stale_plan_files_start_fresh_and_foreign_keys_are_ignored() {
        let store = store("stale-plan").with_resume(true);
        let chain = Count {
            key: "a",
            plan: 5,
            steps: 3,
        };
        partial(&Count { plan: 6, ..chain }, 2)
            .save_to(&store.step_path("a", 2))
            .unwrap();
        // A file named for `a` whose record belongs to `b`.
        partial(&Count { key: "b", ..chain }, 1)
            .save_to(&store.step_path("a", 1))
            .unwrap();
        // Neither the plan-6 file nor `b`'s (plan-5) record continues `a`.
        assert!(store.latest_matching("a", |r| chain.matches(r)).is_none());
        let resumed = run(
            std::slice::from_ref(&chain),
            &Executor::sequential(),
            Some(&store),
        );
        assert_eq!(resumed.unwrap(), vec![round_trip(&chain).unwrap()]);
        assert_eq!(store.saves(), 4, "fresh start: step 0 plus 3 boundaries");
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn kill_imminent_fires_exactly_before_the_fatal_save() {
        let store = store("imminent").with_kill_after(2);
        // saves == 0: the next save is #1, the crash fires after #2.
        assert!(!store.kill_imminent());
        store.save(&partial(&chains(1, 2)[0], 0)).unwrap();
        assert!(store.kill_imminent());
        let unarmed = self::store("imminent-unarmed");
        unarmed.save(&partial(&chains(1, 2)[0], 0)).unwrap();
        assert!(!unarmed.kill_imminent());
        let _ = std::fs::remove_dir_all(store.path());
        let _ = std::fs::remove_dir_all(unarmed.path());
    }

    #[test]
    fn errors_are_typed() {
        let failing = chains(0xBAD, 4);
        for exec in [Executor::sequential(), Executor::with_threads(3)] {
            assert!(matches!(
                run(&failing, &exec, None),
                Err(RunError::Step(e)) if e == "step 2 failed"
            ));
        }
        assert!(matches!(round_trip(&failing[0]), Err(RunError::Step(_))));
        // A checkpoint that does not thaw is a typed restore error, both
        // in the round trip and when resuming from disk.
        let broken = Count {
            key: "a",
            plan: 0xDEAD,
            steps: 3,
        };
        assert!(matches!(round_trip(&broken), Err(RunError::Restore(_))));
        let store = store("restore").with_resume(true);
        store.save(&partial(&broken, 1)).unwrap();
        let err = run(
            std::slice::from_ref(&broken),
            &Executor::sequential(),
            Some(&store),
        )
        .unwrap_err();
        assert!(err.to_string().starts_with("restoring checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(store.path());
    }
}
