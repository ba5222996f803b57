//! Sliced device runs: one device's continuous timeline cut at
//! milestones into resumable steps, shared by fig3's endurance writes and
//! the trace experiment's replays.
//!
//! A [`SlicedChain`] builds a fresh roster device, primes a driver job on
//! it, and advances the job to one milestone per step (the last step runs
//! it to the end). Between steps device, job and a per-experiment tail
//! form a [`SlicedCheckpoint`], the chain's [`DurableRecord`]: the job is
//! its own checkpoint, cloned at a cut and persisted through its own
//! codec. What differs between experiments is a [`Slicing`] impl: the
//! plan head, the job, the tail, the record kind, the key prefix and how
//! a finished run becomes the result.
//!
//! A run is done after exactly `milestones.len()` advances, however early
//! its driver finishes (a milestone can already cover the whole run), so
//! the round-trip, pipelined and durable runners always produce the same
//! output.

use crate::devices::{payload_codecs, DeviceKind, DeviceRoster};
use crate::experiments::durable::{Chain, DurableRecord};
use std::fmt::Debug;
use uc_blockdev::{CheckpointDevice, CheckpointError, DeviceCheckpoint, PersistError};
use uc_persist::{ensure, DecodeError, Decoder, Encoder, Persist};

/// The roster-built device a sliced run drives.
pub type Device = Box<dyn CheckpointDevice + Send>;

/// What one sliced experiment supplies to the shared run.
pub trait Slicing: Debug + Clone + 'static {
    /// The on-disk record kind tag of this experiment's checkpoints.
    const RECORD_KIND: &'static str;
    /// Checkpoint keys are `<KEY_PREFIX>-<device slug>`.
    const KEY_PREFIX: &'static str;
    /// Device `kind` is built with jitter seed `DEVICE_SEED + kind`.
    const DEVICE_SEED: u64;
    /// What a run borrows throughout (configuration, trace).
    type Context<'a>: Copy + Sync;
    /// The plan fields a checkpoint carries ahead of its milestones.
    type Head: Persist + Clone + PartialEq + Debug + Send + Sync;
    /// What the run records step by step, persisted after `completed`.
    type Tail: Persist + Clone + Default + PartialEq + Debug + Send;
    /// The driver job; a clone at a pause point is its checkpoint.
    type Job: Persist + Clone + Debug + Send;
    /// What a step fails with.
    type Error: Send + Debug;
    /// The finished run's result.
    type Output;

    /// Primes the driver on a fresh device.
    ///
    /// # Errors
    ///
    /// Returns the experiment's error if the run cannot be primed.
    fn start(chain: &SlicedChain<'_, Self>, device: &mut Device) -> Result<Self::Job, Self::Error>;

    /// Drives `job` to milestone `target` (`u64::MAX`: to the end) and
    /// records the step into `tail`.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the device.
    fn advance(
        chain: &SlicedChain<'_, Self>,
        job: &mut Self::Job,
        device: &mut Device,
        target: u64,
        tail: &mut Self::Tail,
    ) -> Result<(), Self::Error>;

    /// `true` if the paused `job` runs the configuration `chain` would
    /// start.
    fn resumes(_chain: &SlicedChain<'_, Self>, _job: &Self::Job) -> bool {
        true
    }

    /// `true` if a decoded `tail` is consistent with `completed` steps.
    fn tail_fits(_tail: &Self::Tail, _completed: usize) -> bool {
        true
    }

    /// Turns a finished run into the experiment's result.
    fn finish(chain: &SlicedChain<'_, Self>, tail: Self::Tail, job: Self::Job) -> Self::Output;
}

/// One device's run as a resumable [`Chain`] of milestone steps, for
/// [`durable::run`](super::durable::run) and
/// [`durable::round_trip`](super::durable::round_trip). Every step borrows
/// the context, so a GiB-scale trace is shared, never copied.
pub struct SlicedChain<'a, S: Slicing> {
    roster: &'a DeviceRoster,
    /// Which device is measured.
    pub(crate) kind: DeviceKind,
    /// What the run borrows.
    pub(crate) cx: S::Context<'a>,
    /// The plan head.
    pub(crate) head: S::Head,
    /// Ascending milestones; the last covers the whole run.
    pub(crate) milestones: Vec<u64>,
}

impl<'a, S: Slicing> SlicedChain<'a, S> {
    /// `kind`'s run on `roster` under the plan `(head, milestones)`.
    pub(crate) fn new(
        roster: &'a DeviceRoster,
        kind: DeviceKind,
        cx: S::Context<'a>,
        head: S::Head,
        milestones: Vec<u64>,
    ) -> Self {
        SlicedChain {
            roster,
            kind,
            cx,
            head,
            milestones,
        }
    }

    fn device(&self) -> Device {
        self.roster
            .build_checkpointable(self.kind, S::DEVICE_SEED + self.kind as u64)
    }
}

/// A sliced run between steps: device, driver and tail.
pub struct SlicedRun<S: Slicing> {
    completed: usize,
    tail: S::Tail,
    device: Device,
    job: S::Job,
}

impl<S: Slicing> SlicedRun<S> {
    /// Steps already run.
    pub fn completed(&self) -> usize {
        self.completed
    }
}

/// A paused sliced run: everything needed to continue it on any worker
/// or, persisted as `<key>.seg<k>.ckpt`, in any process. The fields are
/// the byte format, in order.
#[derive(Debug, Clone)]
pub struct SlicedCheckpoint<S: Slicing> {
    /// Which device is measured.
    pub kind: DeviceKind,
    /// The plan head.
    pub head: S::Head,
    /// Ascending milestones; the last covers the whole run.
    pub milestones: Vec<u64>,
    /// Steps already run.
    pub completed: usize,
    /// What the steps so far recorded.
    pub tail: S::Tail,
    /// The device's complete hidden state.
    pub device: DeviceCheckpoint,
    /// The paused driver job.
    pub driver: S::Job,
}

fn key<S: Slicing>(kind: DeviceKind) -> String {
    format!("{}-{}", S::KEY_PREFIX, kind.slug())
}

impl<S: Slicing> DurableRecord for SlicedCheckpoint<S> {
    const RECORD_KIND: &'static str = S::RECORD_KIND;

    fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError> {
        self.kind.encode(w);
        self.head.encode(w);
        self.milestones.encode(w);
        self.completed.encode(w);
        self.tail.encode(w);
        self.device.encode_into(w)?;
        self.driver.encode(w);
        Ok(())
    }

    /// Thaws the device payload through the roster's codec registry
    /// ([`payload_codecs`]) and rejects a plan no run could have taken.
    fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let record = SlicedCheckpoint {
            kind: DeviceKind::decode(r)?,
            head: S::Head::decode(r)?,
            milestones: Vec::decode(r)?,
            completed: usize::decode(r)?,
            tail: S::Tail::decode(r)?,
            device: DeviceCheckpoint::decode_from(r, &payload_codecs())?,
            driver: S::Job::decode(r)?,
        };
        ensure(
            !record.milestones.is_empty() && record.milestones.is_sorted(),
            "SlicedCheckpoint.milestones",
        )?;
        ensure(
            record.completed <= record.milestones.len(),
            "SlicedCheckpoint.completed",
        )?;
        ensure(
            S::tail_fits(&record.tail, record.completed),
            "SlicedCheckpoint.tail",
        )?;
        Ok(record)
    }

    fn key(&self) -> String {
        key::<S>(self.kind)
    }

    fn step(&self) -> usize {
        self.completed
    }
}

impl<S: Slicing> Chain for SlicedChain<'_, S> {
    type State = SlicedRun<S>;
    type Record = SlicedCheckpoint<S>;
    type Error = S::Error;
    type Output = S::Output;

    fn key(&self) -> String {
        key::<S>(self.kind)
    }

    fn steps(&self) -> usize {
        self.milestones.len()
    }

    fn start(&self) -> Result<SlicedRun<S>, S::Error> {
        let mut device = self.device();
        let job = S::start(self, &mut device)?;
        Ok(SlicedRun {
            completed: 0,
            tail: S::Tail::default(),
            device,
            job,
        })
    }

    fn advance(&self, run: &mut SlicedRun<S>) -> Result<(), S::Error> {
        let target = if run.completed + 1 < self.milestones.len() {
            self.milestones[run.completed]
        } else {
            u64::MAX
        };
        S::advance(self, &mut run.job, &mut run.device, target, &mut run.tail)?;
        run.completed += 1;
        Ok(())
    }

    fn checkpoint(&self, run: &SlicedRun<S>) -> SlicedCheckpoint<S> {
        SlicedCheckpoint {
            kind: self.kind,
            head: self.head.clone(),
            milestones: self.milestones.clone(),
            completed: run.completed,
            tail: run.tail.clone(),
            device: run.device.checkpoint(),
            driver: run.job.clone(),
        }
    }

    /// Restores the record onto a fresh roster device and moves its job
    /// in. The plan is this chain's: the durable driver only resumes
    /// records that [match](Chain::matches) it.
    ///
    /// # Panics
    ///
    /// Panics if the record was taken under another plan head (another
    /// trace, capacity or window) — continuing it here is never
    /// meaningful.
    fn resume(&self, record: SlicedCheckpoint<S>) -> Result<SlicedRun<S>, CheckpointError> {
        let mut device = self.device();
        device.restore_from(record.device)?;
        assert_eq!(
            record.head,
            self.head,
            "checkpoint does not belong to this {} plan",
            S::KEY_PREFIX
        );
        Ok(SlicedRun {
            completed: record.completed,
            tail: record.tail,
            device,
            job: record.driver,
        })
    }

    /// Only a checkpoint taken under the exact plan a fresh run executes
    /// may continue it.
    fn matches(&self, record: &SlicedCheckpoint<S>) -> bool {
        record.head == self.head
            && record.milestones == self.milestones
            && S::resumes(self, &record.driver)
    }

    fn finish(&self, run: SlicedRun<S>) -> S::Output {
        assert_eq!(
            run.completed,
            self.milestones.len(),
            "sliced run still has steps to go"
        );
        S::finish(self, run.tail, run.job)
    }
}

/// Test bodies shared by fig3 and the trace experiment: each experiment's
/// tests run every one of them.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::experiments::durable::{self, Store};
    use crate::experiments::Executor;

    /// An empty checkpoint store in a per-test temp directory.
    pub(crate) fn temp_store<S: Slicing>(name: &str) -> Store<SlicedCheckpoint<S>> {
        let dir = std::env::temp_dir().join("uc-sliced-tests").join(format!(
            "{}-{name}-{}",
            S::KEY_PREFIX,
            std::process::id()
        ));
        // Stale files from a previous failed run would perturb resume.
        let _ = std::fs::remove_dir_all(&dir);
        Store::create(dir).expect("create checkpoint dir")
    }

    /// The checkpoint files in `store`'s directory, sorted.
    pub(crate) fn files<R: DurableRecord>(store: &Store<R>) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(store.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// `chain`'s run after `steps` live steps.
    fn partial<S: Slicing>(chain: &SlicedChain<'_, S>, steps: usize) -> SlicedRun<S> {
        let mut run = chain.start().unwrap();
        for _ in 0..steps {
            chain.advance(&mut run).unwrap();
        }
        run
    }

    /// Resumes `record` and runs its remaining steps.
    fn complete<S: Slicing>(chain: &SlicedChain<'_, S>, record: SlicedCheckpoint<S>) -> S::Output {
        let mut run = chain.resume(record).unwrap();
        while run.completed() < chain.steps() {
            chain.advance(&mut run).unwrap();
        }
        chain.finish(run)
    }

    /// A checkpoint taken after `steps` steps reads back from its file
    /// field for field and continues to the same result; corrupted files
    /// fail typed and are skipped on resume.
    pub(crate) fn file_round_trips_and_rejects_corruption<S: Slicing>(
        chain: &SlicedChain<'_, S>,
        steps: usize,
        render: impl Fn(&S::Output) -> String,
    ) {
        let checkpoint = chain.checkpoint(&partial(chain, steps));
        let store = temp_store::<S>("file-roundtrip");
        let path = store.save(&checkpoint).unwrap();
        assert!(path.ends_with(format!("{}.seg{steps:04}.ckpt", chain.key())));
        assert_eq!(store.saves(), 1);

        let loaded = SlicedCheckpoint::<S>::load_from(&path).unwrap();
        assert_eq!(loaded.kind, checkpoint.kind);
        assert_eq!(loaded.head, checkpoint.head);
        assert_eq!(loaded.milestones, checkpoint.milestones);
        assert_eq!(loaded.completed, checkpoint.completed);
        assert_eq!(loaded.tail, checkpoint.tail);
        assert_eq!(
            render(&complete(chain, loaded)),
            render(&complete(chain, checkpoint))
        );

        // Corruptions decode to typed errors, never panics.
        let good = std::fs::read(&path).unwrap();
        let corrupt = |mutate: fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            SlicedCheckpoint::<S>::load_from(&path)
        };
        assert!(matches!(
            corrupt(|b| b[0] ^= 0xFF),
            Err(DecodeError::BadMagic)
        ));
        assert!(matches!(
            corrupt(|b| b[8] = 0xFF), // bump the format version
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            corrupt(|b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
            }),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
        // A corrupt file is skipped (fresh start), not an error.
        assert!(store.latest_matching(&chain.key(), |_| true).is_none());
        let _ = std::fs::remove_dir_all(store.path());
    }

    /// Devices killed after 1, 2, 3… steps resume from their files alone
    /// and finish as `expected` (rendered, in `chains` order).
    pub(crate) fn killed_run_resumes<S: Slicing>(
        chains: &[SlicedChain<'_, S>],
        expected: &[String],
        render: impl Fn(&S::Output) -> String,
    ) {
        let store = temp_store::<S>("kill-resume").with_resume(true);
        for (i, chain) in chains.iter().enumerate() {
            // The interrupted process's state is dropped here: only the
            // on-disk checkpoint survives the "crash".
            let died = (i + 1).min(chain.steps());
            store
                .save(&chain.checkpoint(&partial(chain, died)))
                .unwrap();
        }
        let resumed = durable::run(chains, &Executor::with_threads(2), Some(&store)).unwrap();
        assert_eq!(resumed.len(), expected.len());
        for ((chain, result), expected) in chains.iter().zip(&resumed).zip(expected) {
            assert_eq!(
                &render(result),
                expected,
                "{}: kill-and-resume must match the uninterrupted run",
                chain.key()
            );
        }
        let _ = std::fs::remove_dir_all(store.path());
    }

    /// A checkpoint of `stale`'s plan under the same key must not hijack
    /// `current`'s resume: it starts fresh, finishes as `expected`, and
    /// leaves only its own final file.
    pub(crate) fn stale_plan_is_skipped<S: Slicing>(
        stale: &SlicedChain<'_, S>,
        current: &SlicedChain<'_, S>,
        expected: &str,
        render: impl Fn(&S::Output) -> String,
    ) {
        let store = temp_store::<S>("stale-plan").with_resume(true);
        store.save(&stale.checkpoint(&partial(stale, 1))).unwrap();
        let resumed = durable::run(
            std::slice::from_ref(current),
            &Executor::sequential(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(render(&resumed[0]), expected);
        assert_eq!(
            files(&store),
            [format!("{}.seg{:04}.ckpt", current.key(), current.steps())]
        );
        let _ = std::fs::remove_dir_all(store.path());
    }
}
