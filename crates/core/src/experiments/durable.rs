//! Durable runs: one checkpoint store and one resumable-chain driver for
//! every long experiment.
//!
//! fig3's endurance runs, the trace experiment's replays and the fleet
//! are each one continuous virtual timeline cut into *steps* (segments,
//! phases, epochs). An experiment describes one timeline as a [`Chain`];
//! [`run`] drives any number of chains pipelined across an [`Executor`],
//! carrying each chain's **live** state from step to step and — only when
//! given a [`Store`] — writing that live state to disk at every step
//! boundary ([`Chain::encode`], straight into the record buffer). A
//! resume reads a state back ([`Chain::decode`]); no second, owned copy
//! of a run exists on either side. [`round_trip`] instead encodes and
//! decodes one chain through the same bytes before every step: it keeps
//! the checkpoint seam exercised and is the reference the live driver is
//! tested against. Both produce byte-identical output.
//!
//! # On-disk layout
//!
//! A store is one directory. Each chain owns a file-stem *key*
//! (`fig3-<device>`, `trace-<device>`, `fleet`) and writes
//! `<key>.seg<step>.ckpt` record files (atomically: temp file + rename)
//! under its [`Chain::RECORD_KIND`]:
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
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use uc_blockdev::CheckpointError;
use uc_persist::{DecodeError, Decoder, Encoder};

/// One resumable timeline: how to prime, step, save, load and finish
/// it. Implementations borrow their context (roster, config, trace), so
/// every stage shares it and nothing is copied per step.
pub trait Chain: Sync {
    /// The on-disk record kind tag of this chain's saves. Bump the suffix
    /// when the layout changes.
    const RECORD_KIND: &'static str;
    /// The live run between steps.
    type State: Send;
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
    /// Steps `state` has already run.
    fn completed(&self, state: &Self::State) -> usize;
    /// Writes the live `state` into `w`, devices included
    /// ([`CheckpointDevice::encode_checkpoint`](uc_blockdev::CheckpointDevice::encode_checkpoint)):
    /// nothing of the run is copied first.
    fn encode(&self, state: &Self::State, w: &mut Encoder);
    /// Rebuilds a state from bytes [`Chain::encode`] wrote, restoring its
    /// devices onto freshly built ones. Consumes all of `r`
    /// ([`Decoder::finish`]) before it restores any device.
    ///
    /// # Errors
    ///
    /// [`LoadError::Decode`] on malformed bytes, [`LoadError::OtherPlan`]
    /// for a record this chain's key and plan did not write, and
    /// [`LoadError::Restore`] if a device does not restore onto the one
    /// this chain builds.
    fn decode(&self, r: Decoder<'_>) -> Result<Self::State, LoadError>;
    /// Consumes the finished run.
    fn finish(&self, state: Self::State) -> Self::Output;
    /// Called right before the save that trips the store's crash hook.
    fn before_kill(&self, _state: &Self::State, _store: &Store) {}
}

/// Why saved bytes do not continue a chain.
#[derive(Debug)]
pub enum LoadError {
    /// The bytes are not an intact record of the chain's kind.
    Decode(DecodeError),
    /// An intact record taken under another key or plan.
    OtherPlan,
    /// The record's devices do not restore onto the ones the chain
    /// builds (e.g. one taken at another `--scale`).
    Restore(CheckpointError),
}

impl From<DecodeError> for LoadError {
    fn from(e: DecodeError) -> Self {
        LoadError::Decode(e)
    }
}

impl From<CheckpointError> for LoadError {
    fn from(e: CheckpointError) -> Self {
        LoadError::Restore(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Decode(e) => write!(f, "{e}"),
            LoadError::OtherPlan => write!(f, "taken under a different plan"),
            LoadError::Restore(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Errors of a durable run.
#[derive(Debug)]
pub enum RunError<E> {
    /// A step failed (device I/O, trace validation).
    Step(E),
    /// Writing a checkpoint file failed.
    Save(std::io::Error),
    /// A checkpoint does not load back: its devices do not restore onto
    /// the ones this run builds, or (in [`round_trip`], a seam bug) the
    /// chain does not read its own bytes.
    Restore(LoadError),
}

impl<E> RunError<E> {
    /// The step error of a run that neither saves nor loads ([`run`]
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
pub struct Store {
    dir: PathBuf,
    resume: bool,
    kill_after: Option<u64>,
    saves: AtomicU64,
}

impl Store {
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

    /// Writes `state` as `chain`'s record at the step it has completed,
    /// prunes every other step of its key, and returns the new file's
    /// path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem errors.
    pub fn save<C: Chain>(&self, chain: &C, state: &C::State) -> std::io::Result<PathBuf> {
        let (key, step) = (chain.key(), chain.completed(state));
        let path = self.step_path(&key, step);
        write(chain, state, &path)?;
        self.prune(&key, Some(step));
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

    /// Loads `chain`'s newest saved state that decodes cleanly and was
    /// taken under its key and plan, scanning newest → oldest. Torn,
    /// foreign and stale-plan files are reported on stderr and scanned
    /// *past*, so a stale higher step never shadows an older one that
    /// matches.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Restore`] for a record of this plan whose
    /// devices do not restore: the run asked to continue cannot.
    pub fn latest<C: Chain>(&self, chain: &C) -> Result<Option<C::State>, LoadError> {
        let key = chain.key();
        for step in self.steps(&key).into_iter().rev() {
            let path = self.step_path(&key, step);
            match load(chain, &path) {
                Ok(state) => return Ok(Some(state)),
                Err(e @ LoadError::Restore(_)) => return Err(e),
                Err(e) => eprintln!("{key}: ignoring {}: {e}", path.display()),
            }
        }
        Ok(None)
    }
}

/// Writes `state` to `path` as `chain`'s record (atomically: temp file +
/// rename), encoded straight into the one record buffer.
fn write<C: Chain>(chain: &C, state: &C::State, path: &Path) -> std::io::Result<()> {
    uc_persist::write_record_file(path, C::RECORD_KIND, |w| chain.encode(state, w))
}

/// Reads `chain`'s state back from a record file its saves wrote.
///
/// # Errors
///
/// Every failure — unreadable file, foreign bytes, truncation, flipped
/// bits, future format version, another record kind — is a typed
/// [`LoadError::Decode`]; see [`Chain::decode`] for the rest.
pub fn load<C: Chain>(chain: &C, path: &Path) -> Result<C::State, LoadError> {
    let payload = uc_persist::read_record_file(path, C::RECORD_KIND)?;
    chain.decode(Decoder::new(&payload))
}

/// Saves `state`, giving the chain its last word first if this save
/// trips the crash hook.
fn save<C: Chain>(chain: &C, state: &C::State, store: &Store) -> Result<(), RunError<C::Error>> {
    if store.kill_imminent() {
        chain.before_kill(state, store);
    }
    store.save(chain, state).map(drop).map_err(RunError::Save)
}

/// The state a chain starts from and the steps it has already done:
/// loaded from `store` when resuming onto a matching checkpoint, else
/// primed fresh (and, durably, saved as step 0 after clearing the key).
fn prime<C: Chain>(
    chain: &C,
    store: Option<&Store>,
) -> Result<(C::State, usize), RunError<C::Error>> {
    let Some(store) = store else {
        return Ok((chain.start().map_err(RunError::Step)?, 0));
    };
    let key = chain.key();
    if store.resume {
        if let Some(state) = store.latest(chain).map_err(RunError::Restore)? {
            let done = chain.completed(&state);
            eprintln!("{key}: resuming from step {done}/{}", chain.steps());
            return Ok((state, done));
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
/// step to step; with a `store`, every boundary is also saved to disk
/// (and with [`Store::with_resume`], chains continue from disk).
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
    store: Option<&Store>,
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

/// Runs one chain on the calling thread, encoding its state and decoding
/// it back through the same bytes a save writes before every step — the
/// checkpoint seam's end-to-end check and the reference [`run`] is
/// compared against.
///
/// # Errors
///
/// Returns the first step error, or [`RunError::Restore`] if the
/// chain's own state fails to load back (a seam bug).
pub fn round_trip<C: Chain>(chain: &C) -> Result<C::Output, RunError<C::Error>> {
    let mut state = chain.start().map_err(RunError::Step)?;
    for _ in 0..chain.steps() {
        let mut w = Encoder::new();
        chain.encode(&state, &mut w);
        state = chain
            .decode(Decoder::new(w.as_bytes()))
            .map_err(RunError::Restore)?;
        chain.advance(&mut state).map_err(RunError::Step)?;
    }
    Ok(chain.finish(state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_persist::Persist;

    /// A [`Count`] run: the whole state is four fields.
    #[derive(Debug, Clone, PartialEq)]
    struct Tally {
        key: String,
        plan: u32,
        step: usize,
        sum: u64,
    }

    /// An order-sensitive toy timeline: each step folds its index into a
    /// running hash, so a skipped, repeated or reordered step shows.
    struct Count {
        key: &'static str,
        plan: u32,
        steps: usize,
    }

    impl Chain for Count {
        const RECORD_KIND: &'static str = "uc.test-tally.v1";
        type State = Tally;
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
        fn completed(&self, state: &Tally) -> usize {
            state.step
        }
        fn encode(&self, state: &Tally, w: &mut Encoder) {
            w.put_str(&state.key);
            w.put_u32(state.plan);
            state.step.encode(w);
            w.put_u64(state.sum);
        }
        fn decode(&self, mut r: Decoder<'_>) -> Result<Tally, LoadError> {
            let tally = Tally {
                key: r.get_string()?,
                plan: r.get_u32()?,
                step: usize::decode(&mut r)?,
                sum: r.get_u64()?,
            };
            r.finish()?;
            if tally.key != self.key || tally.plan != self.plan {
                return Err(LoadError::OtherPlan);
            }
            if self.plan == 0xDEAD {
                return Err(CheckpointError::DeviceMismatch {
                    expected: self.key(),
                    found: tally.key,
                }
                .into());
            }
            Ok(tally)
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

    fn store(name: &str) -> Store {
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
        let chains = chains(1, 4);
        store.save(&chains[1], &partial(&chains[1], 3)).unwrap();
        for step in 0..3 {
            store.save(&chains[0], &partial(&chains[0], step)).unwrap();
        }
        assert_eq!(store.steps("a"), vec![2]);
        assert_eq!(store.steps("b"), vec![3], "other keys are untouched");
        assert_eq!(store.saves(), 4);
        // A durable run saves step 0 plus every boundary of every chain.
        let store = self::store("prune-run");
        run(&chains, &Executor::with_threads(2), Some(&store)).unwrap();
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
            store.save(chain, &partial(chain, done)).unwrap();
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
        write(chain, &partial(chain, 1), &store.step_path("a", 1)).unwrap();
        let newest = store.step_path("a", 2);
        write(chain, &partial(chain, 2), &newest).unwrap();
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let latest = store.latest(chain).unwrap().expect("older step survives");
        assert_eq!(latest, partial(chain, 1), "falls back past the torn file");
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
        write(&stale, &partial(&stale, 3), &store.step_path("a", 3)).unwrap();
        write(&current, &partial(&current, 1), &store.step_path("a", 1)).unwrap();
        let found = store
            .latest(&current)
            .unwrap()
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
        let other_plan = Count { plan: 6, ..chain };
        write(
            &other_plan,
            &partial(&other_plan, 2),
            &store.step_path("a", 2),
        )
        .unwrap();
        // A file named for `a` whose record belongs to `b`.
        let other_key = Count { key: "b", ..chain };
        write(
            &other_key,
            &partial(&other_key, 1),
            &store.step_path("a", 1),
        )
        .unwrap();
        // Neither the plan-6 file nor `b`'s (plan-5) record continues `a`.
        assert!(store.latest(&chain).unwrap().is_none());
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
        let chain = &chains(1, 2)[0];
        // saves == 0: the next save is #1, the crash fires after #2.
        assert!(!store.kill_imminent());
        store.save(chain, &partial(chain, 0)).unwrap();
        assert!(store.kill_imminent());
        let unarmed = self::store("imminent-unarmed");
        unarmed.save(chain, &partial(chain, 0)).unwrap();
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
        // A state that does not restore is a typed restore error, both
        // in the round trip and when resuming from disk.
        let broken = Count {
            key: "a",
            plan: 0xDEAD,
            steps: 3,
        };
        assert!(matches!(
            round_trip(&broken),
            Err(RunError::Restore(LoadError::Restore(_)))
        ));
        let store = store("restore").with_resume(true);
        store.save(&broken, &partial(&broken, 1)).unwrap();
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
