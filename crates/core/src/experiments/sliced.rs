//! Sliced device runs: one device's continuous timeline cut at
//! milestones into resumable steps, shared by fig3's endurance writes and
//! the trace experiment's replays.
//!
//! A [`SlicedChain`] builds a fresh roster device, primes a driver job on
//! it, and advances the job to one milestone per step (the last step runs
//! it to the end). Between steps the live [`SlicedRun`] — device, job and
//! a per-experiment tail — is what a save writes, in place: the chain's
//! plan (device kind, plan head, milestones), the steps done, the tail,
//! the device checkpoint and the job through its own codec. A load reads
//! the plan first and refuses a record of another device or plan before
//! it reads the rest, then restores the device onto a fresh roster device
//! and moves the job in. What differs between experiments is a
//! [`Slicing`] impl: the plan head, the job, the tail, the record kind,
//! the key prefix and how a finished run becomes the result.
//!
//! A run is done after exactly `milestones.len()` advances, however early
//! its driver finishes (a milestone can already cover the whole run), so
//! the round-trip, pipelined and durable runners always produce the same
//! output.

use crate::devices::{payload_codecs, DeviceKind, DeviceRoster};
use crate::experiments::durable::{Chain, LoadError};
use uc_blockdev::{CheckpointDevice, DeviceCheckpoint};
use uc_persist::{ensure, Decoder, Encoder, Persist};

/// The roster-built device a sliced run drives.
pub type Device = Box<dyn CheckpointDevice + Send>;

/// What one sliced experiment supplies to the shared run.
pub trait Slicing: Sized + 'static {
    /// The on-disk record kind tag of this experiment's checkpoints.
    const RECORD_KIND: &'static str;
    /// Checkpoint keys are `<KEY_PREFIX>-<device slug>`.
    const KEY_PREFIX: &'static str;
    /// Device `kind` is built with jitter seed `DEVICE_SEED + kind`.
    const DEVICE_SEED: u64;
    /// What a run borrows throughout (configuration, trace).
    type Context<'a>: Copy + Sync;
    /// The plan fields a checkpoint carries ahead of its milestones.
    type Head: Persist + PartialEq + Sync;
    /// What the run records step by step, persisted after `completed`.
    type Tail: Persist + Default + Send;
    /// The driver job; persisted through its own codec at a cut.
    type Job: Persist + Send;
    /// What a step fails with.
    type Error: Send + std::fmt::Debug;
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

    /// The paused driver job.
    pub fn job(&self) -> &S::Job {
        &self.job
    }
}

impl<S: Slicing> Chain for SlicedChain<'_, S> {
    const RECORD_KIND: &'static str = S::RECORD_KIND;
    type State = SlicedRun<S>;
    type Error = S::Error;
    type Output = S::Output;

    fn key(&self) -> String {
        format!("{}-{}", S::KEY_PREFIX, self.kind.slug())
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

    fn completed(&self, run: &SlicedRun<S>) -> usize {
        run.completed
    }

    /// Writes kind, head, milestones, completed, tail, device, job: the
    /// byte format, in order.
    fn encode(&self, run: &SlicedRun<S>, w: &mut Encoder) {
        self.kind.encode(w);
        self.head.encode(w);
        self.milestones.encode(w);
        run.completed.encode(w);
        run.tail.encode(w);
        run.device.encode_checkpoint(w);
        run.job.encode(w);
    }

    /// Only a record of this device under this exact plan (head,
    /// milestones, and a job [`Slicing::resumes`] accepts) continues the
    /// run; the device payload thaws through the roster's codec registry
    /// ([`payload_codecs`]) onto a fresh roster device.
    fn decode(&self, mut r: Decoder<'_>) -> Result<SlicedRun<S>, LoadError> {
        if DeviceKind::decode(&mut r)? != self.kind
            || S::Head::decode(&mut r)? != self.head
            || Vec::<u64>::decode(&mut r)? != self.milestones
        {
            return Err(LoadError::OtherPlan);
        }
        let completed = usize::decode(&mut r)?;
        let tail = S::Tail::decode(&mut r)?;
        ensure(completed <= self.milestones.len(), "SlicedRun.completed")?;
        ensure(S::tail_fits(&tail, completed), "SlicedRun.tail")?;
        let checkpoint = DeviceCheckpoint::decode_from(&mut r, &payload_codecs())?;
        let job = S::Job::decode(&mut r)?;
        if !S::resumes(self, &job) {
            return Err(LoadError::OtherPlan);
        }
        r.finish()?;
        let mut device = self.device();
        device.restore_from(checkpoint)?;
        Ok(SlicedRun {
            completed,
            tail,
            device,
            job,
        })
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use uc_persist::DecodeError;

    /// An empty checkpoint store in a temp directory of its own: tests
    /// that share a helper run in parallel, so every call gets a new one.
    pub(crate) fn temp_store<S: Slicing>(name: &str) -> Store {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join("uc-sliced-tests").join(format!(
            "{}-{name}-{}-{}",
            S::KEY_PREFIX,
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // Stale files from a previous failed run would perturb resume.
        let _ = std::fs::remove_dir_all(&dir);
        Store::create(dir).expect("create checkpoint dir")
    }

    /// The checkpoint files in `store`'s directory, sorted.
    pub(crate) fn files(store: &Store) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(store.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// `chain`'s run after `steps` live steps.
    pub(crate) fn partial<S: Slicing>(chain: &SlicedChain<'_, S>, steps: usize) -> SlicedRun<S> {
        let mut run = chain.start().unwrap();
        for _ in 0..steps {
            chain.advance(&mut run).unwrap();
        }
        run
    }

    /// The bytes a save of `run` writes as its record payload.
    pub(crate) fn encoded<S: Slicing>(chain: &SlicedChain<'_, S>, run: &SlicedRun<S>) -> Vec<u8> {
        let mut w = Encoder::new();
        chain.encode(run, &mut w);
        w.into_bytes()
    }

    /// Runs `run`'s remaining steps.
    fn complete<S: Slicing>(chain: &SlicedChain<'_, S>, mut run: SlicedRun<S>) -> S::Output {
        while run.completed() < chain.steps() {
            chain.advance(&mut run).unwrap();
        }
        chain.finish(run)
    }

    /// A run saved after `steps` steps loads back from its file, writes
    /// the same payload again and continues to the same result; corrupted
    /// files fail typed and are skipped on resume.
    pub(crate) fn file_round_trips_and_rejects_corruption<S: Slicing>(
        chain: &SlicedChain<'_, S>,
        steps: usize,
        render: impl Fn(&S::Output) -> String,
    ) {
        let run = partial(chain, steps);
        let store = temp_store::<S>("file-roundtrip");
        let path = store.save(chain, &run).unwrap();
        assert!(path.ends_with(format!("{}.seg{steps:04}.ckpt", chain.key())));
        assert_eq!(store.saves(), 1);

        let loaded = durable::load(chain, &path).unwrap();
        assert_eq!(loaded.completed(), steps);
        let payload = uc_persist::read_record_file(&path, S::RECORD_KIND).unwrap();
        assert_eq!(encoded(chain, &loaded), payload);
        assert_eq!(
            render(&complete(chain, loaded)),
            render(&complete(chain, run))
        );

        // Corruptions decode to typed errors, never panics.
        let good = std::fs::read(&path).unwrap();
        let corrupt = |mutate: fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            mutate(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            durable::load(chain, &path).map(drop)
        };
        assert!(matches!(
            corrupt(|b| b[0] ^= 0xFF),
            Err(LoadError::Decode(DecodeError::BadMagic))
        ));
        assert!(matches!(
            corrupt(|b| b[8] = 0xFF), // bump the format version
            Err(LoadError::Decode(DecodeError::UnsupportedVersion { .. }))
        ));
        assert!(matches!(
            corrupt(|b| {
                let mid = b.len() / 2;
                b[mid] ^= 0x40;
            }),
            Err(LoadError::Decode(DecodeError::ChecksumMismatch { .. }))
        ));
        // A corrupt file is skipped (fresh start), not an error.
        assert!(store.latest(chain).unwrap().is_none());
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
            store.save(chain, &partial(chain, died)).unwrap();
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

    /// A checkpoint of `stale`'s plan under the same key is refused as
    /// another plan and must not hijack `current`'s resume: the run
    /// starts fresh, finishes as `expected`, and leaves only its own
    /// final file.
    pub(crate) fn stale_plan_is_skipped<S: Slicing>(
        stale: &SlicedChain<'_, S>,
        current: &SlicedChain<'_, S>,
        expected: &str,
        render: impl Fn(&S::Output) -> String,
    ) {
        assert_eq!(stale.key(), current.key());
        let store = temp_store::<S>("stale-plan").with_resume(true);
        let path = store.save(stale, &partial(stale, 1)).unwrap();
        assert!(matches!(
            durable::load(current, &path),
            Err(LoadError::OtherPlan)
        ));
        let resumed = durable::run(
            std::slice::from_ref(current),
            &Executor::sequential(),
            Some(&store),
        )
        .unwrap();
        assert_eq!(render(&resumed[0]), expected);
        // The stale save, then a fresh start: step 0 and every boundary.
        assert_eq!(store.saves(), 1 + current.steps() as u64 + 1);
        assert_eq!(
            files(&store),
            [format!("{}.seg{:04}.ckpt", current.key(), current.steps())]
        );
        let _ = std::fs::remove_dir_all(store.path());
    }
}
