//! Figure 3: runtime throughput under 3× capacity of sustained random
//! writes.
//!
//! The endurance run is the one experiment whose virtual timeline cannot
//! be fanned out as independent cells: each device's run is a single
//! continuous history (FTL wear, buffer occupancy, token-bucket levels all
//! carry forward). This module therefore slices the run into **resumable
//! segments** at capacity-fraction milestones: [`Endurance`] is its
//! [`Slicing`] of the shared [`sliced`](super::sliced) run, which saves
//! the device's checkpoint beside the paused closed-loop driver
//! ([`ClosedLoopJob`], written through its own codec) as one
//! `uc.fig3-checkpoint.v1` record at each milestone. [`chains`] hands
//! the segment chains to the shared durable-run engine ([`durable`]), so
//! segment `k` of one device runs concurrently with segment `k-1` of
//! another.
//!
//! Determinism is the contract: [`run`], [`run_pipelined`] at any
//! segment and thread count, [`durable::round_trip`] (encode/decode at
//! every boundary) and a killed-and-resumed durable run all produce
//! byte-identical [`Fig3Result`]s (pinned by this module's tests and the
//! facade-level property tests).

use crate::devices::{DeviceKind, DeviceRoster};
use crate::experiments::durable::{self, RunError};
use crate::experiments::sliced::{Device, SlicedChain, Slicing};
use crate::experiments::Executor;
use uc_blockdev::IoError;
use uc_metrics::Series;
use uc_sim::SimDuration;
use uc_workload::{AccessPattern, ClosedLoopJob, JobSpec};

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

/// The throughput window for a run over `volume` bytes: scaled so the run
/// spans a few hundred points regardless of the simulated capacity (a
/// scaled-down device finishes in well under a second of virtual time).
fn effective_window(cfg: &Fig3Config, volume: u64) -> SimDuration {
    let est_secs = volume as f64 / 2.0e9;
    cfg.window
        .min(SimDuration::from_secs_f64(est_secs / 100.0))
        .max(SimDuration::from_micros(500))
}

/// Figure 3's [`Slicing`]: one closed-loop random-write job paused at
/// byte milestones. The plan head is the normalization capacity and the
/// throughput window; there is no tail. A paused run is saved as
/// `fig3-<slug>.seg<k>.ckpt`.
#[derive(Debug, Clone)]
pub struct Endurance;

impl Slicing for Endurance {
    const RECORD_KIND: &'static str = "uc.fig3-checkpoint.v1";
    const KEY_PREFIX: &'static str = "fig3";
    const DEVICE_SEED: u64 = 0xF163_0000;
    type Context<'a> = &'a Fig3Config;
    type Head = (u64, SimDuration);
    type Tail = ();
    type Job = ClosedLoopJob;
    type Error = IoError;
    type Output = Fig3Result;

    fn start(chain: &SlicedChain<'_, Self>, device: &mut Device) -> Result<ClosedLoopJob, IoError> {
        let cfg = chain.cx;
        // The last milestone is the full volume, the job's own byte limit.
        let volume = *chain.milestones.last().expect("at least one milestone");
        let spec = JobSpec::new(AccessPattern::RandWrite, cfg.io_size, cfg.queue_depth)
            .with_byte_limit(volume)
            .with_throughput_window(chain.head.1)
            .with_seed(0xF163);
        ClosedLoopJob::start(device, &spec)
    }

    fn advance(
        _chain: &SlicedChain<'_, Self>,
        job: &mut ClosedLoopJob,
        device: &mut Device,
        target: u64,
        _tail: &mut (),
    ) -> Result<(), IoError> {
        job.run_until(device, target).map(drop)
    }

    fn finish(chain: &SlicedChain<'_, Self>, _tail: (), job: ClosedLoopJob) -> Fig3Result {
        let (kind, (capacity, window)) = (chain.kind, chain.head);
        let time_series = job.report().throughput.series();
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
}

/// `kind`'s endurance run sliced into `segments` equal byte milestones
/// (clamped to at least 1), for [`durable::run`] and
/// [`durable::round_trip`].
pub fn chain<'a>(
    roster: &'a DeviceRoster,
    kind: DeviceKind,
    cfg: &'a Fig3Config,
    segments: usize,
) -> SlicedChain<'a, Endurance> {
    let capacity = roster.capacity_of(kind);
    let volume = (capacity as f64 * cfg.capacity_multiple) as u64;
    let segments = segments.max(1) as u64;
    let milestones = (1..=segments).map(|k| volume * k / segments).collect();
    let head = (capacity, effective_window(cfg, volume));
    SlicedChain::new(roster, kind, cfg, head, milestones)
}

/// One [`chain`] per device in `kinds`.
pub fn chains<'a>(
    roster: &'a DeviceRoster,
    kinds: &[DeviceKind],
    cfg: &'a Fig3Config,
    segments: usize,
) -> Vec<SlicedChain<'a, Endurance>> {
    kinds
        .iter()
        .map(|&kind| chain(roster, kind, cfg, segments))
        .collect()
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
    use crate::experiments::durable::{Chain, LoadError};
    use crate::experiments::sliced::tests as shared;
    use crate::report::render_fig3;
    use uc_persist::Decoder;

    fn roster() -> DeviceRoster {
        DeviceRoster::with_capacities(128 << 20, 128 << 20)
    }

    /// The unsliced run of every device, rendered.
    fn unsliced(roster: &DeviceRoster, cfg: &Fig3Config) -> Vec<String> {
        DeviceKind::ALL
            .iter()
            .map(|&kind| render_fig3(&run(roster, kind, cfg).unwrap()))
            .collect()
    }

    #[test]
    fn segmented_and_pipelined_match_unsliced_for_every_kind() {
        // The determinism contract of the checkpoint redesign: slicing the
        // endurance run into segments — with encode/decode round trips, or
        // pipelined live across workers — must leave the rendered figure
        // byte-identical for every device class.
        let roster = roster();
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
            let segmented = durable::round_trip(&chain(&roster, kind, &cfg, 4)).unwrap();
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
        let roster = roster();
        let cfg = Fig3Config::quick();
        let essd2 = chain(&roster, DeviceKind::Essd2, &cfg, 3);
        assert_eq!(essd2.steps(), 3);
        let mut run = essd2.start().unwrap();
        assert_eq!(run.completed(), 0);
        essd2.advance(&mut run).unwrap();
        assert_eq!(run.completed(), 1);
        let bytes = shared::encoded(&essd2, &run);
        // A saved run loads on a roster clone (another worker's view).
        let other = roster.clone();
        let loaded_chain = chain(&other, DeviceKind::Essd2, &cfg, 3);
        let mut loaded = loaded_chain.decode(Decoder::new(&bytes)).unwrap();
        assert_eq!(loaded.completed(), 1);
        while loaded.completed() < loaded_chain.steps() {
            loaded_chain.advance(&mut loaded).unwrap();
        }
        let result = loaded_chain.finish(loaded);
        assert!(result.peak_gbps() > 0.0);
    }

    #[test]
    fn resume_on_mismatched_roster_fails_loudly() {
        let roster = roster();
        let cfg = Fig3Config::quick();
        let ssd = chain(&roster, DeviceKind::LocalSsd, &cfg, 2);
        let bytes = shared::encoded(&ssd, &ssd.start().unwrap());
        // A roster at another scale plans another capacity: the record is
        // refused as another plan.
        let other = roster.with_scale(2);
        let scaled = chain(&other, DeviceKind::LocalSsd, &cfg, 2);
        assert!(matches!(
            scaled.decode(Decoder::new(&bytes)),
            Err(LoadError::OtherPlan)
        ));
        // Under the same plan it builds a different device, and the name
        // check (or payload check) rejects the restore.
        let same_plan = SlicedChain::<Endurance>::new(
            &other,
            DeviceKind::LocalSsd,
            &cfg,
            ssd.head,
            ssd.milestones.clone(),
        );
        assert!(matches!(
            same_plan.decode(Decoder::new(&bytes)),
            Err(LoadError::Restore(_))
        ));
    }

    #[test]
    fn another_plan_head_is_refused_and_the_run_starts_fresh() {
        // The same device and milestones, but another throughput window:
        // only the plan head differs, and the record is refused as
        // another plan instead of continuing under the wrong window.
        let roster = roster();
        let cfg = Fig3Config::quick();
        let current = chain(&roster, DeviceKind::LocalSsd, &cfg, 2);
        let (capacity, window) = current.head;
        let stale = SlicedChain::<Endurance>::new(
            &roster,
            DeviceKind::LocalSsd,
            &cfg,
            (capacity, window * 2),
            current.milestones.clone(),
        );
        let plain = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        shared::stale_plan_is_skipped(&stale, &current, &render_fig3(&plain), render_fig3);
    }

    #[test]
    fn durable_run_matches_plain_run_and_prunes_stale_files() {
        let roster = roster();
        let cfg = Fig3Config::quick();
        let store = shared::temp_store::<Endurance>("durable-matches");
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
        let store = durable::Store::create(store.path()).unwrap();
        let durable = durable::run(
            &chains(&roster, &DeviceKind::ALL, &cfg, 4),
            &exec,
            Some(&store),
        )
        .unwrap();
        let rendered: Vec<String> = durable.iter().map(render_fig3).collect();
        assert_eq!(
            rendered,
            unsliced(&roster, &cfg),
            "durable run must render byte-identically"
        );
        // Superseded and leftover boundaries were pruned: exactly the
        // final checkpoint file remains per device.
        assert_eq!(
            shared::files(&store),
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
        let roster = roster();
        let cfg = Fig3Config::quick();
        shared::killed_run_resumes(
            &chains(&roster, &DeviceKind::ALL, &cfg, 4),
            &unsliced(&roster, &cfg),
            render_fig3,
        );
    }

    #[test]
    fn stale_plan_checkpoints_are_ignored_on_resume() {
        // A checkpoint taken under a 3-segment plan must not hijack a
        // 5-segment resume: the device starts fresh and still produces
        // the canonical figure.
        let roster = roster();
        let cfg = Fig3Config::quick();
        let plain = run(&roster, DeviceKind::LocalSsd, &cfg).unwrap();
        shared::stale_plan_is_skipped(
            &chain(&roster, DeviceKind::LocalSsd, &cfg, 3),
            &chain(&roster, DeviceKind::LocalSsd, &cfg, 5),
            &render_fig3(&plain),
            render_fig3,
        );
    }

    #[test]
    fn fig3_checkpoint_file_round_trips_and_rejects_corruption() {
        let roster = roster();
        let cfg = Fig3Config::quick();
        shared::file_round_trips_and_rejects_corruption(
            &chain(&roster, DeviceKind::Essd1, &cfg, 3),
            1,
            render_fig3,
        );
    }

    #[test]
    fn ssd_collapses_near_capacity() {
        let roster = roster();
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
        let r = run(&roster(), DeviceKind::Essd2, &Fig3Config::quick()).unwrap();
        assert!(
            r.knee_multiple().is_none(),
            "ESSD-2 must not collapse, knee at {:?}",
            r.knee_multiple()
        );
    }
}
