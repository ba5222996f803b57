//! Figure 3: runtime throughput under 3× capacity of sustained random
//! writes.
//!
//! The endurance run is the one experiment whose virtual timeline cannot
//! be fanned out as independent cells: each device's run is a single
//! continuous history (FTL wear, buffer occupancy, token-bucket levels all
//! carry forward). This module therefore slices the run into **resumable
//! segments** at capacity-fraction milestones ([`SegmentedRun`]), using
//! the checkpoint seam ([`CheckpointDevice`]) plus the resumable
//! closed-loop driver ([`ClosedLoopJob`]): at each milestone the device
//! and driver state can be frozen into a [`Fig3Checkpoint`] and thawed
//! on any worker or in a later process. [`Fig3Chain`] hands the segment
//! chains to the shared durable-run engine ([`durable`]), so segment `k`
//! of one device runs concurrently with segment `k-1` of another.
//!
//! Determinism is the contract: [`run`], [`run_pipelined`] at any
//! segment and thread count, [`durable::round_trip`] (freeze/thaw at
//! every boundary) and a killed-and-resumed durable run all produce
//! byte-identical [`Fig3Result`]s (pinned by this module's tests and the
//! facade-level property tests).

use crate::devices::{payload_codecs, DeviceKind, DeviceRoster};
use crate::experiments::durable::{self, Chain, DurableRecord, RunError};
use crate::experiments::Executor;
use uc_blockdev::{CheckpointDevice, CheckpointError, DeviceCheckpoint, IoError, PersistError};
use uc_metrics::Series;
use uc_persist::{ensure, DecodeError, Decoder, Encoder, Persist};
use uc_sim::SimDuration;
use uc_workload::{AccessPattern, ClosedLoopJob, DriverCheckpoint, JobReport, JobSpec};

/// Workload parameters for the Figure 3 endurance run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// I/O size in bytes (large, to reach peak throughput quickly).
    pub io_size: u32,
    /// Queue depth.
    pub queue_depth: usize,
    /// Total volume as a multiple of device capacity (paper: 3×).
    pub capacity_multiple: f64,
    /// Throughput-timeline window.
    pub window: SimDuration,
}

impl Fig3Config {
    /// The paper's setting: write 3× the capacity with large random writes.
    pub fn paper() -> Self {
        Fig3Config {
            io_size: 128 << 10,
            queue_depth: 32,
            capacity_multiple: 3.0,
            window: SimDuration::from_millis(200),
        }
    }

    /// A shorter run (1.5× capacity) for tests.
    pub fn quick() -> Self {
        Fig3Config {
            capacity_multiple: 1.5,
            ..Fig3Config::paper()
        }
    }
}

/// Figure 3 results for one device.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Which device was measured.
    pub device: DeviceKind,
    /// The device capacity used for normalization.
    pub capacity: u64,
    /// Throughput versus time: `(seconds, GB/s)`.
    pub time_series: Series,
    /// Throughput versus *written volume*: `(multiple of capacity, GB/s)`.
    /// This is the axis the paper's markers annotate.
    pub volume_series: Series,
}

impl Fig3Result {
    /// Peak throughput over the run, in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.volume_series.max_y()
    }

    /// Mean throughput over the final 10 % of the run (the post-collapse
    /// steady state, if any), in GB/s.
    pub fn tail_gbps(&self) -> f64 {
        let pts = self.volume_series.points();
        if pts.is_empty() {
            return 0.0;
        }
        let tail = &pts[pts.len() - (pts.len() / 10).max(1)..];
        tail.iter().map(|p| p.1).sum::<f64>() / tail.len() as f64
    }

    /// Mean throughput over an early plateau (after the warmup transient
    /// of queue fill and token-bucket burst), in GB/s.
    pub fn plateau_gbps(&self) -> f64 {
        let pts = self.volume_series.points();
        if pts.is_empty() {
            return 0.0;
        }
        let lo = (pts.len() / 50).max(2).min(pts.len() - 1);
        let hi = (pts.len() / 8).max(lo + 1).min(pts.len());
        let window = &pts[lo..hi];
        window.iter().map(|p| p.1).sum::<f64>() / window.len() as f64
    }

    /// The volume series smoothed for knee detection (5-window moving
    /// average, which absorbs per-window quantization at small scales).
    pub fn smoothed_volume_series(&self) -> Series {
        self.volume_series.moving_average(5)
    }

    /// The written-volume multiple at which throughput first fell below
    /// half the early plateau, if it ever did — the paper's "knee".
    ///
    /// Using the plateau (not the absolute peak) makes the detector robust
    /// to the warmup spike a token-bucket burst or an empty write buffer
    /// produces in the first windows.
    pub fn knee_multiple(&self) -> Option<f64> {
        let reference = self.plateau_gbps();
        if reference <= 0.0 {
            return None;
        }
        let smooth = self.smoothed_volume_series();
        let pts = smooth.points();
        let start = (pts.len() / 8).max(3).min(pts.len());
        pts[start..]
            .iter()
            .find(|&&(_, y)| y < reference / 2.0)
            .map(|&(x, _)| x)
    }
}

/// The jitter-seed base every fig3 device is built with (`+ kind`).
fn device_seed(kind: DeviceKind) -> u64 {
    0xF1630000 + kind as u64
}

/// The throughput window for a run over `volume` bytes: scaled so the run
/// spans a few hundred points regardless of the simulated capacity (a
/// scaled-down device finishes in well under a second of virtual time).
fn effective_window(cfg: &Fig3Config, volume: u64) -> SimDuration {
    let est_secs = volume as f64 / 2.0e9;
    cfg.window
        .min(SimDuration::from_secs_f64(est_secs / 100.0))
        .max(SimDuration::from_micros(500))
}

/// The milestone plan of one device's endurance run: normalization
/// capacity, throughput window, and ascending byte milestones (the last
/// is the full volume). Derived in exactly one place — both
/// [`SegmentedRun::start`] and the durable runner's resume-validity check
/// go through here, so the check can never drift from what a fresh run
/// actually executes.
#[derive(Debug, Clone, PartialEq)]
struct Plan {
    capacity: u64,
    window: SimDuration,
    milestones: Vec<u64>,
}

impl Plan {
    fn of(roster: &DeviceRoster, kind: DeviceKind, cfg: &Fig3Config, segments: usize) -> Plan {
        let capacity = roster.capacity_of(kind);
        let volume = (capacity as f64 * cfg.capacity_multiple) as u64;
        let window = effective_window(cfg, volume);
        let segments = segments.max(1) as u64;
        // Equal-volume milestones; the last always equals the full
        // volume, which is also the job spec's own byte limit.
        let milestones = (1..=segments).map(|k| volume * k / segments).collect();
        Plan {
            capacity,
            window,
            milestones,
        }
    }

    /// The full endurance volume in bytes.
    fn volume(&self) -> u64 {
        *self.milestones.last().expect("at least one milestone")
    }

    /// `true` if `checkpoint` was taken under this exact plan (same
    /// scale, config and segment count) and can continue it.
    fn matches(&self, checkpoint: &Fig3Checkpoint) -> bool {
        checkpoint.capacity == self.capacity
            && checkpoint.window == self.window
            && checkpoint.milestones == self.milestones
    }
}

/// Post-processes a finished endurance report into the figure's series.
fn finish(kind: DeviceKind, capacity: u64, window: SimDuration, report: &JobReport) -> Fig3Result {
    let time_series = report.throughput.series();
    // Re-index by cumulative written volume (normalized by capacity).
    let mut cumulative = 0.0f64;
    let window_secs = window.as_secs_f64();
    let mut volume_points = Vec::with_capacity(time_series.len());
    for &(_, gbps) in time_series.points() {
        cumulative += gbps * 1e9 * window_secs;
        volume_points.push((cumulative / capacity as f64, gbps));
    }
    Fig3Result {
        device: kind,
        capacity,
        volume_series: Series::from_points(
            format!("{kind} GB/s vs written multiple"),
            volume_points,
        ),
        time_series,
    }
}

/// A frozen endurance run between segments: everything needed to continue
/// the run on any worker — the device's complete hidden state plus the
/// paused closed-loop driver.
///
/// Produced by [`SegmentedRun::checkpoint`], thawed by
/// [`SegmentedRun::resume`], persisted as `fig3-<slug>.seg<k>.ckpt` by a
/// [`durable::Store`].
#[derive(Debug, Clone)]
pub struct Fig3Checkpoint {
    /// Which device is being measured.
    pub kind: DeviceKind,
    /// The device capacity used for normalization.
    pub capacity: u64,
    /// The throughput-timeline window of this run.
    pub window: SimDuration,
    /// Ascending byte milestones; the last is the full endurance volume.
    pub milestones: Vec<u64>,
    /// Milestones already reached.
    pub completed: usize,
    /// The device's complete hidden state.
    pub device: DeviceCheckpoint,
    /// The paused workload driver.
    pub driver: DriverCheckpoint,
}

impl DurableRecord for Fig3Checkpoint {
    const RECORD_KIND: &'static str = "uc.fig3-checkpoint.v1";

    fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError> {
        self.kind.encode(w);
        w.put_u64(self.capacity);
        self.window.encode(w);
        self.milestones.encode(w);
        self.completed.encode(w);
        self.device.encode_into(w)?;
        self.driver.encode(w);
        Ok(())
    }

    /// Thaws the device payload through the roster's codec registry
    /// ([`payload_codecs`]).
    fn decode_from(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let kind = DeviceKind::decode(r)?;
        let capacity = r.get_u64()?;
        let window = SimDuration::decode(r)?;
        let milestones = Vec::<u64>::decode(r)?;
        let completed = usize::decode(r)?;
        let device = DeviceCheckpoint::decode_from(r, &payload_codecs())?;
        let driver = DriverCheckpoint::decode(r)?;
        ensure(completed <= milestones.len(), "Fig3Checkpoint.completed")?;
        Ok(Fig3Checkpoint {
            kind,
            capacity,
            window,
            milestones,
            completed,
            device,
            driver,
        })
    }

    fn key(&self) -> String {
        chain_key(self.kind)
    }

    fn step(&self) -> usize {
        self.completed
    }
}

/// A Figure 3 endurance run sliced into resumable segments.
///
/// Segment boundaries are capacity-fraction milestones of the total
/// written volume. Between segments the run can be checkpointed, moved
/// and resumed; however it is driven, the final [`Fig3Result`] is
/// byte-identical to an unsliced run.
pub struct SegmentedRun {
    kind: DeviceKind,
    capacity: u64,
    window: SimDuration,
    milestones: Vec<u64>,
    completed: usize,
    device: Box<dyn CheckpointDevice + Send>,
    job: ClosedLoopJob,
}

impl SegmentedRun {
    /// Primes an endurance run on a fresh device, sliced into `segments`
    /// equal byte milestones (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the device.
    pub fn start(
        roster: &DeviceRoster,
        kind: DeviceKind,
        cfg: &Fig3Config,
        segments: usize,
    ) -> Result<Self, IoError> {
        let plan = Plan::of(roster, kind, cfg, segments);
        let mut device = roster.build_checkpointable(kind, device_seed(kind));
        let spec = JobSpec::new(AccessPattern::RandWrite, cfg.io_size, cfg.queue_depth)
            .with_byte_limit(plan.volume())
            .with_throughput_window(plan.window)
            .with_seed(0xF163);
        let job = ClosedLoopJob::start(&mut device, &spec)?;
        Ok(SegmentedRun {
            kind,
            capacity: plan.capacity,
            window: plan.window,
            milestones: plan.milestones,
            completed: 0,
            device,
            job,
        })
    }

    /// Milestones already reached (segments executed).
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Total segments in the plan.
    pub fn segments(&self) -> usize {
        self.milestones.len()
    }

    /// `true` once the endurance volume has been written.
    pub fn is_finished(&self) -> bool {
        self.job.is_finished() || self.completed >= self.milestones.len()
    }

    /// Runs one segment: drives the device to the next byte milestone.
    ///
    /// # Errors
    ///
    /// Propagates the first I/O error from the device.
    pub fn advance(&mut self) -> Result<(), IoError> {
        let target = self.milestones[self.completed.min(self.milestones.len() - 1)];
        self.job.run_until(&mut self.device, target)?;
        self.completed += 1;
        Ok(())
    }

    /// Freezes the run between segments into a portable checkpoint.
    pub fn checkpoint(&self) -> Fig3Checkpoint {
        Fig3Checkpoint {
            kind: self.kind,
            capacity: self.capacity,
            window: self.window,
            milestones: self.milestones.clone(),
            completed: self.completed,
            device: self.device.checkpoint(),
            driver: self.job.checkpoint(),
        }
    }

    /// Thaws a checkpoint: builds a fresh device through the roster's
    /// checkpoint seam, restores the frozen state into it, and resumes the
    /// paused driver.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the checkpoint does not belong to
    /// a device this roster builds for `checkpoint.kind` (e.g. a roster at
    /// a different scale).
    pub fn resume(
        roster: &DeviceRoster,
        checkpoint: Fig3Checkpoint,
    ) -> Result<Self, CheckpointError> {
        let mut device = roster.build_checkpointable(checkpoint.kind, device_seed(checkpoint.kind));
        device.restore_from(checkpoint.device)?;
        Ok(SegmentedRun {
            kind: checkpoint.kind,
            capacity: checkpoint.capacity,
            window: checkpoint.window,
            milestones: checkpoint.milestones,
            completed: checkpoint.completed,
            device,
            job: ClosedLoopJob::resume(checkpoint.driver),
        })
    }

    /// Consumes the finished run, yielding the figure's series.
    ///
    /// # Panics
    ///
    /// Panics if the run is not finished.
    pub fn into_result(self) -> Fig3Result {
        assert!(self.is_finished(), "fig3 run still has segments to go");
        finish(self.kind, self.capacity, self.window, self.job.report())
    }
}

/// The checkpoint file-stem key of `kind`'s endurance run.
fn chain_key(kind: DeviceKind) -> String {
    format!("fig3-{}", kind.slug())
}

/// One device's endurance run as a resumable [`Chain`] of segments, for
/// [`durable::run`] and [`durable::round_trip`].
pub struct Fig3Chain<'a> {
    roster: &'a DeviceRoster,
    kind: DeviceKind,
    cfg: &'a Fig3Config,
    plan: Plan,
}

impl<'a> Fig3Chain<'a> {
    /// `kind`'s endurance run sliced into `segments` equal byte
    /// milestones (clamped to at least 1).
    pub fn new(
        roster: &'a DeviceRoster,
        kind: DeviceKind,
        cfg: &'a Fig3Config,
        segments: usize,
    ) -> Self {
        Fig3Chain {
            roster,
            kind,
            cfg,
            plan: Plan::of(roster, kind, cfg, segments),
        }
    }
}

/// One [`Fig3Chain`] per device in `kinds`.
pub fn chains<'a>(
    roster: &'a DeviceRoster,
    kinds: &[DeviceKind],
    cfg: &'a Fig3Config,
    segments: usize,
) -> Vec<Fig3Chain<'a>> {
    kinds
        .iter()
        .map(|&kind| Fig3Chain::new(roster, kind, cfg, segments))
        .collect()
}

impl Chain for Fig3Chain<'_> {
    type State = SegmentedRun;
    type Record = Fig3Checkpoint;
    type Error = IoError;
    type Output = Fig3Result;

    fn key(&self) -> String {
        chain_key(self.kind)
    }

    fn steps(&self) -> usize {
        self.plan.milestones.len()
    }

    fn start(&self) -> Result<SegmentedRun, IoError> {
        SegmentedRun::start(self.roster, self.kind, self.cfg, self.steps())
    }

    fn advance(&self, state: &mut SegmentedRun) -> Result<(), IoError> {
        state.advance()
    }

    fn checkpoint(&self, state: &SegmentedRun) -> Fig3Checkpoint {
        state.checkpoint()
    }

    fn resume(&self, record: Fig3Checkpoint) -> Result<SegmentedRun, CheckpointError> {
        SegmentedRun::resume(self.roster, record)
    }

    /// Only a checkpoint taken under the exact plan a fresh run executes
    /// (same `--scale`, config and `--segments`) may continue it.
    fn matches(&self, record: &Fig3Checkpoint) -> bool {
        self.plan.matches(record)
    }

    fn finish(&self, state: SegmentedRun) -> Fig3Result {
        state.into_result()
    }
}

/// Runs the Figure 3 endurance experiment on `kind` as one continuous
/// (single-segment) run.
///
/// # Errors
///
/// Propagates the first I/O error from the device.
pub fn run(
    roster: &DeviceRoster,
    kind: DeviceKind,
    cfg: &Fig3Config,
) -> Result<Fig3Result, IoError> {
    run_pipelined(roster, &[kind], cfg, 1, &Executor::sequential()).map(|mut r| r.remove(0))
}

/// Runs the endurance experiment for several devices, each sliced into
/// `segments` segments, with the segment chains pipelined across
/// `exec`'s workers: segment `k` of one device runs concurrently with
/// segment `k-1` of another.
///
/// Results are returned in `kinds` order and are byte-identical to
/// [`run`]'s for every device, at any segment and thread count. For
/// on-disk checkpoints, pass [`chains`] and a [`durable::Store`] to
/// [`durable::run`] instead.
///
/// # Errors
///
/// Propagates the first I/O error any device reports.
pub fn run_pipelined(
    roster: &DeviceRoster,
    kinds: &[DeviceKind],
    cfg: &Fig3Config,
    segments: usize,
    exec: &Executor,
) -> Result<Vec<Fig3Result>, IoError> {
    durable::run(&chains(roster, kinds, cfg, segments), exec, None).map_err(RunError::into_step)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_fig3;
    use durable::Store;

    #[test]
    fn segmented_and_pipelined_match_unsliced_for_every_kind() {
        // The determinism contract of the checkpoint redesign: slicing the
        // endurance run into segments — with freeze/thaw round trips, or
        // pipelined live across workers — must leave the rendered figure
        // byte-identical for every device class.
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let pipelined = run_pipelined(
            &roster,
            &DeviceKind::ALL,
            &cfg,
            4,
            &Executor::with_threads(3),
        )
        .unwrap();
        for (i, &kind) in DeviceKind::ALL.iter().enumerate() {
            let unsliced = run(&roster, kind, &cfg).unwrap();
            let segmented = durable::round_trip(&Fig3Chain::new(&roster, kind, &cfg, 4)).unwrap();
            for (label, sliced) in [("segmented", &segmented), ("pipelined", &pipelined[i])] {
                assert_eq!(sliced.capacity, unsliced.capacity, "{kind}/{label}");
                assert_eq!(
                    sliced.time_series, unsliced.time_series,
                    "{kind}/{label} time series"
                );
                assert_eq!(
                    sliced.volume_series, unsliced.volume_series,
                    "{kind}/{label} volume series"
                );
                assert_eq!(
                    render_fig3(sliced),
                    render_fig3(&unsliced),
                    "{kind}/{label} rendered figure"
                );
            }
        }
    }

    #[test]
    fn segment_bookkeeping_and_checkpoint_flow() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let mut run = SegmentedRun::start(&roster, DeviceKind::Essd2, &cfg, 3).unwrap();
        assert_eq!(run.segments(), 3);
        assert_eq!(run.completed(), 0);
        assert!(!run.is_finished());
        run.advance().unwrap();
        assert_eq!(run.completed(), 1);
        let frozen = run.checkpoint();
        assert_eq!(frozen.completed, 1);
        assert_eq!(frozen.milestones.len(), 3);
        assert!(frozen.device.device().contains("PL3") || !frozen.device.device().is_empty());
        // A frozen run thaws on a roster clone (another worker's view).
        let mut thawed = SegmentedRun::resume(&roster.clone(), frozen).unwrap();
        while !thawed.is_finished() {
            thawed.advance().unwrap();
        }
        let result = thawed.into_result();
        assert!(result.peak_gbps() > 0.0);
    }

    #[test]
    fn resume_on_mismatched_roster_fails_loudly() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let run = SegmentedRun::start(&roster, DeviceKind::LocalSsd, &cfg, 2).unwrap();
        let frozen = run.checkpoint();
        // A roster at another scale builds a different device; the name
        // check (or payload check) must reject the stale checkpoint.
        let other = roster.with_scale(2);
        assert!(SegmentedRun::resume(&other, frozen).is_err());
    }

    fn temp_store(name: &str) -> Store<Fig3Checkpoint> {
        let dir = std::env::temp_dir()
            .join("uc-fig3-durable-tests")
            .join(format!("{name}-{}", std::process::id()));
        // Stale files from a previous failed run would perturb resume.
        let _ = std::fs::remove_dir_all(&dir);
        Store::create(dir).expect("create checkpoint dir")
    }

    /// The checkpoint files in `store`'s directory, sorted.
    fn files(store: &Store<Fig3Checkpoint>) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(store.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn durable_run_matches_plain_run_and_prunes_stale_files() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let store = temp_store("durable-matches");
        let exec = Executor::with_threads(3);
        // An earlier, completed 8-segment run leaves its final boundaries
        // behind; a fresh 4-segment run into the same directory must not
        // keep them for a later `--resume` to continue.
        durable::run(
            &chains(&roster, &DeviceKind::ALL, &cfg, 8),
            &exec,
            Some(&store),
        )
        .unwrap();
        let store = Store::create(store.path()).unwrap();
        let durable = durable::run(
            &chains(&roster, &DeviceKind::ALL, &cfg, 4),
            &exec,
            Some(&store),
        )
        .unwrap();
        for (i, &kind) in DeviceKind::ALL.iter().enumerate() {
            let plain = run(&roster, kind, &cfg).unwrap();
            assert_eq!(
                render_fig3(&durable[i]),
                render_fig3(&plain),
                "{kind}: durable run must render byte-identically"
            );
        }
        // Superseded and leftover boundaries were pruned: exactly the
        // final checkpoint file remains per device.
        assert_eq!(
            files(&store),
            [
                "fig3-essd-1.seg0004.ckpt",
                "fig3-essd-2.seg0004.ckpt",
                "fig3-ssd.seg0004.ckpt"
            ]
        );
        assert_eq!(store.saves(), 3 * 5, "3 devices x (seg0 + 4 boundaries)");
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn killed_run_resumes_to_byte_identical_figures() {
        // Simulate the crash-resume CI gate in-process: advance each
        // device partway, persist the boundary (as the durable runner
        // would), "crash", then resume from disk and compare against an
        // uninterrupted run.
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let segments = 4;
        let store = temp_store("kill-resume").with_resume(true);
        for &kind in &DeviceKind::ALL {
            let mut partial = SegmentedRun::start(&roster, kind, &cfg, segments).unwrap();
            partial.advance().unwrap();
            if kind == DeviceKind::Essd2 {
                partial.advance().unwrap(); // devices die at different points
            }
            store.save(&partial.checkpoint()).unwrap();
            // The interrupted process's state is dropped here: only the
            // on-disk checkpoint survives the "crash".
        }
        let resumed = durable::run(
            &chains(&roster, &DeviceKind::ALL, &cfg, segments),
            &Executor::with_threads(2),
            Some(&store),
        )
        .unwrap();
        for (i, &kind) in DeviceKind::ALL.iter().enumerate() {
            let uninterrupted = run(&roster, kind, &cfg).unwrap();
            assert_eq!(
                render_fig3(&resumed[i]),
                render_fig3(&uninterrupted),
                "{kind}: kill-and-resume must render byte-identically"
            );
        }
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn stale_plan_checkpoints_are_ignored_on_resume() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let store = temp_store("stale-plan").with_resume(true);
        // A checkpoint taken under a 3-segment plan...
        let mut other = SegmentedRun::start(&roster, DeviceKind::LocalSsd, &cfg, 3).unwrap();
        other.advance().unwrap();
        store.save(&other.checkpoint()).unwrap();
        // ...must not hijack a 5-segment resume: the device starts fresh
        // and still produces the canonical figure.
        let chain = Fig3Chain::new(&roster, DeviceKind::LocalSsd, &cfg, 5);
        let resumed = durable::run(
            std::slice::from_ref(&chain),
            &Executor::sequential(),
            Some(&store),
        )
        .unwrap();
        let plain = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        assert_eq!(render_fig3(&resumed[0]), render_fig3(&plain));
        assert_eq!(files(&store), ["fig3-ssd.seg0005.ckpt"]);
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn fig3_checkpoint_file_round_trips_and_rejects_corruption() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config::quick();
        let mut state = SegmentedRun::start(&roster, DeviceKind::Essd1, &cfg, 3).unwrap();
        state.advance().unwrap();
        let checkpoint = state.checkpoint();
        let store = temp_store("file-roundtrip");
        let path = store.save(&checkpoint).unwrap();
        assert!(path.ends_with("fig3-essd-1.seg0001.ckpt"));

        let loaded = Fig3Checkpoint::load_from(&path).unwrap();
        assert_eq!(loaded.kind, checkpoint.kind);
        assert_eq!(loaded.capacity, checkpoint.capacity);
        assert_eq!(loaded.milestones, checkpoint.milestones);
        assert_eq!(loaded.completed, checkpoint.completed);
        // The thawed run continues to the same final figure.
        let mut a = SegmentedRun::resume(&roster, loaded).unwrap();
        let mut b = SegmentedRun::resume(&roster, checkpoint).unwrap();
        while !a.is_finished() {
            a.advance().unwrap();
            b.advance().unwrap();
        }
        assert_eq!(render_fig3(&a.into_result()), render_fig3(&b.into_result()));

        // Corruptions decode to typed errors, never panics.
        let good = std::fs::read(&path).unwrap();
        let mut wrong_magic = good.clone();
        wrong_magic[0] ^= 0xFF;
        std::fs::write(&path, &wrong_magic).unwrap();
        assert!(matches!(
            Fig3Checkpoint::load_from(&path),
            Err(DecodeError::BadMagic)
        ));
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            Fig3Checkpoint::load_from(&path),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
        let mut future = good.clone();
        future[8] = 0xFF; // bump the format version
        std::fs::write(&path, &future).unwrap();
        assert!(matches!(
            Fig3Checkpoint::load_from(&path),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
        let _ = std::fs::remove_dir_all(store.path());
    }

    #[test]
    fn ssd_collapses_near_capacity() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let cfg = Fig3Config {
            capacity_multiple: 2.0,
            ..Fig3Config::paper()
        };
        let r = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        assert!(r.peak_gbps() > 1.0, "clean device writes fast");
        let knee = r.knee_multiple().expect("GC collapse must occur");
        assert!(
            (0.5..1.6).contains(&knee),
            "knee at {knee}x capacity, expected near 1x"
        );
        assert!(
            r.tail_gbps() < r.peak_gbps() / 3.0,
            "steady state ({}) far below peak ({})",
            r.tail_gbps(),
            r.peak_gbps()
        );
    }

    #[test]
    fn essd2_sustains_throughout() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let r = run(&roster, DeviceKind::Essd2, &Fig3Config::quick()).unwrap();
        assert!(
            r.knee_multiple().is_none(),
            "ESSD-2 must not collapse, knee at {:?}",
            r.knee_multiple()
        );
    }
}
